// FnRef: a non-owning reference to a callable -- two words, no allocation.
//
// Waits hand their condition through virtual interfaces
// (scramnet::MemPort::spin_until, scrmpi::ChannelDevice::spin_until) down
// to sim::Process::spin_until. A std::function there could allocate on
// every wait; a FnRef never does. The callable it refers to must outlive
// every call through it, which a lambda passed straight into the call does.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace scrnet::sim {

template <typename Sig>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)> {
 public:
  FnRef() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FnRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FnRef(F&& f)  // implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace scrnet::sim
