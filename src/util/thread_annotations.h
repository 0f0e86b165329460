// Clang Thread Safety Analysis attribute macros, in the style of
// LLVM/Abseil `thread_annotations.h`: under Clang with `-Wthread-safety`
// the lock discipline declared here is checked at COMPILE time ("which
// mutex guards this field" becomes part of the type system); under every
// other compiler the macros expand to nothing.
//
// Usage (see util/mutex.h for the annotated lc::Mutex these attach to):
//
//   class Account {
//    public:
//     void Deposit(int64_t n) LC_EXCLUDES(mu_) {
//       MutexLock lock(&mu_);
//       balance_ += n;
//     }
//     int64_t BalanceLocked() const LC_REQUIRES(mu_) { return balance_; }
//    private:
//     mutable Mutex mu_;
//     int64_t balance_ LC_GUARDED_BY(mu_) = 0;
//   };
//
// Reading a `-Wthread-safety` error: the analyzer reports the variable or
// function, the capability (mutex) it expected, and what was actually held
// at the call site, e.g.
//
//   error: reading variable 'balance_' requires holding mutex 'mu_'
//   error: calling function 'BalanceLocked' requires holding mutex 'mu_'
//   error: mutex 'mu_' is still held at the end of function
//
// The fix is always one of: take the lock (MutexLock), declare the caller's
// requirement (LC_REQUIRES) so the obligation moves up the call chain, or —
// if the access is genuinely unsynchronized by design — change the code,
// not the annotation. This repo's policy is zero LC_NO_THREAD_SAFETY_ANALYSIS
// suppressions in the serving/concurrency modules (enforced by review; the
// `-Wthread-safety -Werror` CI job keeps the proofs from rotting).
//
// Constructors and destructors are exempt from the analysis by design
// (Clang treats them as NO_THREAD_SAFETY_ANALYSIS): before the constructor
// returns and after the destructor starts, no other thread can legally hold
// a reference, so guarded-member initialization there is race-free.

#ifndef LC_UTIL_THREAD_ANNOTATIONS_H_
#define LC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define LC_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define LC_THREAD_ANNOTATION_(x)  // no-op
#endif

// --- Type annotations ------------------------------------------------------

/// Marks a class as a lockable capability ("mutex" names it in diagnostics).
#define LC_CAPABILITY(x) LC_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (lc::MutexLock and friends).
#define LC_SCOPED_CAPABILITY LC_THREAD_ANNOTATION_(scoped_lockable)

// --- Data-member annotations -----------------------------------------------

/// The member may only be read or written while holding `x`.
#define LC_GUARDED_BY(x) LC_THREAD_ANNOTATION_(guarded_by(x))

/// The member is a pointer; the pointed-to data (not the pointer itself) may
/// only be dereferenced while holding `x`.
#define LC_PT_GUARDED_BY(x) LC_THREAD_ANNOTATION_(pt_guarded_by(x))

// --- Function annotations --------------------------------------------------

/// Caller must hold `...` exclusively when calling (checked at call sites;
/// inside the function the capability is assumed held).
#define LC_REQUIRES(...) \
  LC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The function acquires the capability exclusively and does not release it
/// before returning (Mutex::Lock, MutexLock's constructor).
#define LC_ACQUIRE(...) \
  LC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases an exclusively held capability.
#define LC_RELEASE(...) \
  LC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function attempts the acquisition; `b` is the return value meaning
/// "acquired" (Mutex::TryLock returns true on success).
#define LC_TRY_ACQUIRE(...) \
  LC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold `...` (the function acquires it itself; catches
/// self-deadlock on non-recursive mutexes at compile time).
#define LC_EXCLUDES(...) LC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime-checked claim that the capability is held (Mutex::AssertHeld):
/// tells the analysis to assume it from here on in this scope.
#define LC_ASSERT_CAPABILITY(x) LC_THREAD_ANNOTATION_(assert_capability(x))

/// The function returns a reference to the named capability (lets callers
/// lock through an accessor).
#define LC_RETURN_CAPABILITY(x) LC_THREAD_ANNOTATION_(lock_returned(x))

/// Disables the analysis for one function. Policy: never used in serving /
/// concurrency modules — restructure the code instead (see file comment).
#define LC_NO_THREAD_SAFETY_ANALYSIS \
  LC_THREAD_ANNOTATION_(no_thread_safety_analysis)

// --- Loop confinement ------------------------------------------------------

// There is no Clang attribute for thread confinement, so these three macros
// are no-ops in every normal build. Under -DLC_ANALYZE (the configuration
// tools/lc_analyze parses, never one that ships code) they expand into
// __attribute__((annotate(...))) markers that survive into the AST, where
// the analyzer turns the runtime AssertOnLoopThread() discipline into an
// analysis-time proof. See tools/lc_analyze/run.py and the "Correctness
// tooling" section of docs/ARCHITECTURE.md.

#if defined(LC_ANALYZE) && defined(__clang__)
#define LC_ANALYZE_ANNOTATE_(x) __attribute__((annotate(x)))
#else
#define LC_ANALYZE_ANNOTATE_(x)  // no-op outside the analysis parse
#endif

/// Documents a member owned by exactly ONE event-loop thread: it is not
/// guarded by any mutex, and must only ever be touched (a) from the owning
/// loop's thread while the loop runs, or (b) before Run() starts / after it
/// returns, when no concurrent access is possible. The runtime counterpart
/// is EventLoop::AssertOnLoopThread(), a debug-build abort called by every
/// method that touches loop-affine state (see serve/net/event_loop.h). The
/// macro argument names the owning loop for the reader, e.g.:
///
///   std::map<int, Handler> handlers_ LC_LOOP_AFFINE(this);   // EventLoop
///   size_t pending_bytes_ LC_LOOP_AFFINE(loop_) = 0;         // Connection
///
/// tools/lc_analyze (check: affinity) verifies every access to an affine
/// member happens in a loop-confined function: one annotated LC_ON_LOOP,
/// one that calls AssertOnLoopThread(), a lambda handed to the owning
/// loop's Watch/Post/RunAt, or a function reached only from confined
/// callers. Constructors and destructors are exempt, mirroring the TSA
/// exemption above.
#define LC_LOOP_AFFINE(loop) LC_ANALYZE_ANNOTATE_("lc_loop_affine")

/// Declares that a function runs on the owning loop's thread by contract —
/// the analysis-time twin of a "Loop thread only." comment. Use it where
/// the contract cannot be derived from the call graph: EventLoop::Run()
/// itself (it DEFINES the loop thread), or an accessor whose callers live
/// outside the analyzed tree. Like LC_NO_THREAD_SAFETY_ANALYSIS, every use
/// is a reviewed claim, not a proof — prefer AssertOnLoopThread().
#define LC_ON_LOOP LC_ANALYZE_ANNOTATE_("lc_on_loop")

/// Wraps a lambda handed to a cross-thread sink (EventLoop::Post/RunAt/
/// Watch, ThreadPool::Submit) whose raw
/// `this`/pointer/reference captures are safe for a reason the analyzer
/// cannot see — typically "Shutdown() joins the loop threads before the
/// captured object dies". The reason string is mandatory and should name
/// that ordering. Normal builds erase the macro entirely (the lambda is
/// passed through unchanged); the LC_ANALYZE parse routes it through an
/// identity function the analyzer recognizes as a reviewed suppression.
///
///   loop->RunAt(when, LC_CAPTURE_SAFE(
///       "loop joined in Shutdown() before *this dies", [this] { ... }));
///
/// Variadic because a capture list may contain top-level commas.
#if defined(LC_ANALYZE)
namespace lc {
namespace analyze {
template <typename F>
constexpr F&& CaptureSafe(const char* /*why*/, F&& f) {
  return static_cast<F&&>(f);
}
}  // namespace analyze
}  // namespace lc
#define LC_CAPTURE_SAFE(why, ...) ::lc::analyze::CaptureSafe(why, __VA_ARGS__)
#else
#define LC_CAPTURE_SAFE(why, ...) __VA_ARGS__
#endif

#endif  // LC_UTIL_THREAD_ANNOTATIONS_H_
