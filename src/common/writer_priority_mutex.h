#ifndef HMMM_COMMON_WRITER_PRIORITY_MUTEX_H_
#define HMMM_COMMON_WRITER_PRIORITY_MUTEX_H_

#include <mutex>
#include <shared_mutex>

namespace hmmm {

/// A readers-writer lock that an unbroken stream of readers cannot
/// starve a writer on. std::shared_mutex prefers readers on glibc, so
/// while shared holders overlap, an exclusive locker can wait without
/// bound. Here every locker passes a turnstile first: a reader takes and
/// drops it on the way in; a writer holds it from before it waits for
/// the readers to drain until it unlocks, so readers arriving behind a
/// waiting writer queue at the turnstile. Only the readers already past
/// it finish ahead of the writer.
///
/// A thread holding the shared lock must not take it again: the second
/// acquire would queue behind a waiting writer that waits for the first.
/// Meets the Lockable and SharedLockable requirements used by
/// std::unique_lock and std::shared_lock.
class WriterPriorityMutex {
 public:
  void lock() {
    turnstile_.lock();
    state_.lock();
  }
  void unlock() {
    state_.unlock();
    turnstile_.unlock();
  }
  void lock_shared() {
    turnstile_.lock();
    turnstile_.unlock();
    state_.lock_shared();
  }
  void unlock_shared() { state_.unlock_shared(); }

 private:
  std::mutex turnstile_;
  std::shared_mutex state_;
};

}  // namespace hmmm

#endif  // HMMM_COMMON_WRITER_PRIORITY_MUTEX_H_
