// DBIter: turns the internal-key merged stream (MemTables + SSTables) into
// the user-facing iterator — newest visible version per user key, hiding
// tombstones and out-of-snapshot entries.

#ifndef DLSM_CORE_DB_ITER_H_
#define DLSM_CORE_DB_ITER_H_

#include <functional>

#include "src/core/dbformat.h"
#include "src/core/iterator.h"

namespace dlsm {

/// Wraps internal_iter (owned). cleanup runs at destruction (releases
/// MemTable references and the pinned version).
Iterator* NewDBIterator(Iterator* internal_iter, SequenceNumber snapshot,
                        std::function<void()> cleanup);

}  // namespace dlsm

#endif  // DLSM_CORE_DB_ITER_H_
