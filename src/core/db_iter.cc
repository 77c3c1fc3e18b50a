#include "src/core/db_iter.h"

#include <memory>
#include <string>

#include "src/util/logging.h"

namespace dlsm {

namespace {

/// See LevelDB's DBIter: maintains a direction and collapses the internal
/// (user_key, seq, type) stream into the newest visible value per user key.
class DBIter : public Iterator {
 public:
  DBIter(Iterator* iter, SequenceNumber sequence,
         std::function<void()> cleanup)
      : iter_(iter),
        sequence_(sequence),
        cleanup_(std::move(cleanup)),
        direction_(kForward),
        valid_(false) {}

  ~DBIter() override {
    iter_.reset();
    if (cleanup_) cleanup_();
  }

  bool Valid() const override { return valid_; }

  Slice key() const override {
    DLSM_CHECK(valid_);
    return direction_ == kForward ? ExtractUserKey(iter_->key())
                                  : Slice(saved_key_);
  }

  Slice value() const override {
    DLSM_CHECK(valid_);
    return direction_ == kForward ? iter_->value() : Slice(saved_value_);
  }

  Status status() const override {
    if (status_.ok()) return iter_->status();
    return status_;
  }

  void Next() override {
    DLSM_CHECK(valid_);
    if (direction_ == kReverse) {
      direction_ = kForward;
      if (!iter_->Valid()) {
        iter_->SeekToFirst();
      } else {
        iter_->Next();
      }
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        return;
      }
    } else {
      // Skip remaining versions of the current user key.
      SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
      iter_->Next();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        return;
      }
    }
    FindNextUserEntry(true, &saved_key_);
  }

  void Prev() override {
    DLSM_CHECK(valid_);
    if (direction_ == kForward) {
      DLSM_CHECK(iter_->Valid());
      SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
      // Back up until before all entries of the current user key.
      for (;;) {
        iter_->Prev();
        if (!iter_->Valid()) {
          valid_ = false;
          saved_key_.clear();
          ClearSavedValue();
          return;
        }
        if (ExtractUserKey(iter_->key()).compare(saved_key_) < 0) {
          break;
        }
      }
      direction_ = kReverse;
    }
    FindPrevUserEntry();
  }

  void Seek(const Slice& target) override {
    direction_ = kForward;
    ClearSavedValue();
    saved_key_.clear();
    AppendInternalKey(&saved_key_, ParsedInternalKey(target, sequence_,
                                                     kValueTypeForSeek));
    iter_->Seek(saved_key_);
    if (iter_->Valid()) {
      FindNextUserEntry(false, &saved_key_);
    } else {
      valid_ = false;
    }
  }

  void SeekToFirst() override {
    direction_ = kForward;
    ClearSavedValue();
    iter_->SeekToFirst();
    if (iter_->Valid()) {
      FindNextUserEntry(false, &saved_key_);
    } else {
      valid_ = false;
    }
  }

  void SeekToLast() override {
    direction_ = kReverse;
    ClearSavedValue();
    iter_->SeekToLast();
    FindPrevUserEntry();
  }

 private:
  enum Direction { kForward, kReverse };

  bool ParseKey(ParsedInternalKey* ikey) {
    if (!ParseInternalKey(iter_->key(), ikey)) {
      status_ = Status::Corruption("corrupted internal key in DBIter");
      return false;
    }
    return true;
  }

  static void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  void ClearSavedValue() { saved_value_.clear(); }

  void FindNextUserEntry(bool skipping, std::string* skip) {
    DLSM_CHECK(direction_ == kForward);
    do {
      ParsedInternalKey ikey;
      if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
        switch (ikey.type) {
          case kTypeDeletion:
            // This user key is deleted; skip all its older versions.
            SaveKey(ikey.user_key, skip);
            skipping = true;
            break;
          case kTypeValue:
            if (skipping &&
                ikey.user_key.compare(*skip) <= 0) {
              // Hidden by a newer deletion or an already-emitted key.
            } else {
              valid_ = true;
              saved_key_.clear();
              return;
            }
            break;
        }
      }
      iter_->Next();
    } while (iter_->Valid());
    saved_key_.clear();
    valid_ = false;
  }

  void FindPrevUserEntry() {
    DLSM_CHECK(direction_ == kReverse);
    ValueType value_type = kTypeDeletion;
    if (iter_->Valid()) {
      do {
        ParsedInternalKey ikey;
        if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
          if ((value_type != kTypeDeletion) &&
              ikey.user_key.compare(saved_key_) < 0) {
            break;  // We encountered a previous user key; emit the saved.
          }
          value_type = ikey.type;
          if (value_type == kTypeDeletion) {
            saved_key_.clear();
            ClearSavedValue();
          } else {
            Slice raw_value = iter_->value();
            SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
            saved_value_.assign(raw_value.data(), raw_value.size());
          }
        }
        iter_->Prev();
      } while (iter_->Valid());
    }
    if (value_type == kTypeDeletion) {
      valid_ = false;
      saved_key_.clear();
      ClearSavedValue();
      direction_ = kForward;
    } else {
      valid_ = true;
    }
  }

  std::unique_ptr<Iterator> iter_;
  SequenceNumber sequence_;
  std::function<void()> cleanup_;

  Status status_;
  std::string saved_key_;
  std::string saved_value_;
  Direction direction_;
  bool valid_;
};

}  // namespace

Iterator* NewDBIterator(Iterator* internal_iter, SequenceNumber snapshot,
                        std::function<void()> cleanup) {
  return new DBIter(internal_iter, snapshot, std::move(cleanup));
}

}  // namespace dlsm
