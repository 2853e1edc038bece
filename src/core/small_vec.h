// SmallVec: a vector of trivially-copyable elements with inline storage.
//
// The SNACK sets ride in every ACK header; as std::vectors they cost two
// heap allocations per ACK per hop. SmallVec keeps up to N elements
// inline (N is sized to the protocols' per-ACK entry caps, so in-tree
// traffic never spills) and falls back to a heap buffer beyond that. A
// spill is counted in a thread-local counter so tests can pin the
// zero-allocation claim without instrumenting the allocator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <vector>

namespace jtp::core {

// Thread-local count of SmallVec spills-to-heap (per thread, monotone).
// One Simulator per thread, so per-thread deltas are per-run deltas.
inline std::uint64_t& small_vec_spill_count() {
  thread_local std::uint64_t n = 0;
  return n;
}

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is for POD-like elements");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  SmallVec(std::initializer_list<T> il) { assign(il.begin(), il.size()); }
  SmallVec(const SmallVec& o) { assign(o.data_, o.size_); }
  SmallVec(SmallVec&& o) noexcept { steal(o); }
  ~SmallVec() { free_heap(); }

  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) assign(o.data_, o.size_);
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      free_heap();
      steal(o);
    }
    return *this;
  }
  SmallVec& operator=(std::initializer_list<T> il) {
    assign(il.begin(), il.size());
    return *this;
  }
  // std::vector interop (tests; SNACK sets built in a std::vector).
  SmallVec& operator=(const std::vector<T>& v) {
    assign(v.data(), v.size());
    return *this;
  }
  SmallVec& operator=(std::vector<T>&& v) {
    assign(v.data(), v.size());
    return *this;
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  static constexpr std::size_t inline_capacity() { return N; }
  bool spilled() const { return data_ != inline_buf_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(cap_ * 2);
    data_[size_++] = v;
  }

  void pop_back() { --size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SmallVec& a, const SmallVec& b) {
    return !(a == b);
  }
  friend bool operator==(const SmallVec& a, const std::vector<T>& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<T>& a, const SmallVec& b) {
    return b == a;
  }
  friend bool operator!=(const SmallVec& a, const std::vector<T>& b) {
    return !(a == b);
  }
  friend bool operator!=(const std::vector<T>& a, const SmallVec& b) {
    return !(b == a);
  }

 private:
  void assign(const T* src, std::size_t n) {
    clear();
    reserve(n);
    std::copy(src, src + n, data_);
    size_ = static_cast<std::uint32_t>(n);
  }

  // Take o's contents; o is left empty (inline). A spilled source moves
  // by pointer; an inline source copies its elements (trivial Ts).
  void steal(SmallVec& o) noexcept {
    if (o.spilled()) {
      data_ = o.data_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.data_ = o.inline_buf_;
      o.cap_ = N;
    } else {
      data_ = inline_buf_;
      cap_ = N;
      size_ = o.size_;
      std::copy(o.inline_buf_, o.inline_buf_ + o.size_, inline_buf_);
    }
    o.size_ = 0;
  }

  void grow(std::size_t want) {
    const std::size_t new_cap = std::max<std::size_t>(want, N * 2);
    T* heap = new T[new_cap];
    std::copy(data_, data_ + size_, heap);
    free_heap();
    data_ = heap;
    cap_ = static_cast<std::uint32_t>(new_cap);
    ++small_vec_spill_count();
  }

  void free_heap() {
    if (spilled()) {
      delete[] data_;
      data_ = inline_buf_;
      cap_ = N;
    }
  }

  T* data_ = inline_buf_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  T inline_buf_[N];
};

}  // namespace jtp::core
