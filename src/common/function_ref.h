#ifndef SWOLE_COMMON_FUNCTION_REF_H_
#define SWOLE_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

// Non-owning reference to a callable (absl::FunctionRef / llvm::function_ref
// idiom): two pointers, never allocates. The referenced callable must
// outlive the FunctionRef — pass lambdas at the call site, never store one.

namespace swole {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace swole

#endif  // SWOLE_COMMON_FUNCTION_REF_H_
