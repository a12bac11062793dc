// A value built by its first reader, from whichever thread reads first,
// and shared read-only after that. Planning holds only what a cell's key
// and cost need; data that only a simulation or a render reads (the
// transitive-closure activity trace, L4's cost tables) waits in a Lazy
// until one of them asks for it.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

namespace afs {

template <class T>
class Lazy {
 public:
  explicit Lazy(std::function<T()> make) : make_(std::move(make)) {}

  /// The value; the first call builds it, once, however many threads
  /// call at once. Later calls cost an acquire load, still too much per
  /// simulated iteration: read it once per loop or scheduler.
  const T& get() const {
    if (!built_.load(std::memory_order_acquire))
      std::call_once(once_, [this] {
        value_ = make_();
        make_ = nullptr;  // releases what the function captured
        built_.store(true, std::memory_order_release);
      });
    return value_;
  }

  /// True once a reader has built the value.
  bool built() const { return built_.load(std::memory_order_acquire); }

 private:
  mutable std::once_flag once_;
  mutable std::function<T()> make_;
  mutable T value_{};
  mutable std::atomic<bool> built_{false};
};

/// The value of `lazy`, built now if this is its first read, as a pointer
/// that keeps `lazy` alive.
template <class T>
std::shared_ptr<const T> shared_value(
    const std::shared_ptr<const Lazy<T>>& lazy) {
  return {lazy, &lazy->get()};
}

}  // namespace afs
