// A count of every operator new in a test binary, for the tests that bound
// heap traffic. A binary that links tests/alloc_counter.cc replaces the
// global operator new with a counting one.

#ifndef DLSM_TESTS_ALLOC_COUNTER_H_
#define DLSM_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace dlsm {
namespace test {

/// operator new calls made so far by this process.
uint64_t OperatorNewCount();

}  // namespace test
}  // namespace dlsm

#endif  // DLSM_TESTS_ALLOC_COUNTER_H_
