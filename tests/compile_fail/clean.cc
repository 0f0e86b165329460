// Positive control: correct lock discipline MUST compile warning-free
// under -Wthread-safety -Werror. If this file fails, the harness (or the
// wrappers) broke — the negative fixtures' failures prove nothing.
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {
class Account {
 public:
  void Deposit(long n) LC_EXCLUDES(mu_) {
    lc::MutexLock lock(&mu_);
    balance_ += n;
  }

  long balance() const LC_EXCLUDES(mu_) {
    lc::MutexLock lock(&mu_);
    return balance_;
  }

  long BalanceLocked() const LC_REQUIRES(mu_) { return balance_; }

  long Sum() const LC_EXCLUDES(mu_) {
    lc::MutexLock lock(&mu_);
    return BalanceLocked();
  }

 private:
  mutable lc::Mutex mu_;
  long balance_ LC_GUARDED_BY(mu_) = 0;
};
}  // namespace

void Use() {
  Account account;
  account.Deposit(1);
  (void)account.balance();
  (void)account.Sum();
}
