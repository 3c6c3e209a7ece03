// value.hpp — the dynamic value type of the embedded Unicon runtime.
//
// Icon/Unicon is dynamically typed; every runtime datum is one of a small
// set of types. Value is a 16-byte hand-rolled tagged union: null, int64
// and real live inline; strings up to kSsoCapacity bytes are stored
// wholly inline (SSO — table keys and word-count tokens allocate
// nothing); every heap type sits behind ONE intrusive-refcounted pointer
// (runtime/rc.hpp), so copying any Value is a 16-byte copy plus at most
// one non-virtual atomic increment — no variant dispatch, no shared_ptr
// control blocks. Integers transparently overflow from a 64-bit fast
// path into arbitrary-precision BigInt, mirroring Icon's implicit large
// integers (which the paper's word-count benchmarks rely on); the
// canonical invariant — a BigInt payload never fits int64 — is enforced
// at construction, so small never equals big.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bignum/bigint.hpp"
#include "runtime/rc.hpp"

namespace congen {

class Value;
class ListImpl;
class TableImpl;
class SetImpl;
class ProcImpl;
class RecordImpl;
class CoExpression;  // defined in coexpr/
class Gen;           // defined in kernel/

using ListPtr = Rc<ListImpl>;
using TablePtr = Rc<TableImpl>;
using SetPtr = Rc<SetImpl>;
using ProcPtr = Rc<ProcImpl>;
using RecordPtr = Rc<RecordImpl>;
using CoExprPtr = Rc<CoExpression>;
using GenPtr = std::shared_ptr<Gen>;

/// Discriminator for Value. Order defines the cross-type sort order used
/// by sort() and by table/set key ordering (Icon sorts values of different
/// types by type name; we use a fixed rank).
enum class TypeTag : std::uint8_t {
  Null = 0,
  Integer,   // int64 fast path or BigInt
  Real,
  String,
  List,
  Table,
  Set,
  Record,
  Proc,
  CoExpr,
};

namespace detail {

/// Heap spill for strings longer than the SSO capacity.
class StringBox final : public RcBase {
 public:
  explicit StringBox(std::string s)
      : RcBase(static_cast<std::uint8_t>(TypeTag::String)), s_(std::move(s)) {}
  [[nodiscard]] const std::string& str() const noexcept { return s_; }

 private:
  std::string s_;
};

/// Heap spill for integers outside int64 (always non-canonical-small).
class BigIntBox final : public RcBase {
 public:
  explicit BigIntBox(BigInt v)
      : RcBase(static_cast<std::uint8_t>(TypeTag::Integer)), v_(std::move(v)) {}
  [[nodiscard]] const BigInt& value() const noexcept { return v_; }

 private:
  BigInt v_;
};

}  // namespace detail

/// Dynamically typed Unicon value — 16 bytes, cheap to copy.
class Value {
 public:
  /// Longest string stored inline (bytes 0..13 of the value; byte 14 is
  /// the length, byte 15 the representation tag).
  static constexpr std::size_t kSsoCapacity = 14;

  /// The null value (&null).
  Value() noexcept : aux_(0), rep_(Rep::kNull) { std::memset(raw_, 0, sizeof raw_); }

  Value(const Value& o) noexcept : aux_(o.aux_), rep_(o.rep_) {
    std::memcpy(raw_, o.raw_, sizeof raw_);
    if (isHeapRep(rep_)) heapPtr()->retain();
  }
  Value(Value&& o) noexcept : aux_(o.aux_), rep_(o.rep_) {
    std::memcpy(raw_, o.raw_, sizeof raw_);
    o.rep_ = Rep::kNull;
  }
  Value& operator=(const Value& o) noexcept {
    if (this != &o) {
      if (isHeapRep(o.rep_)) o.heapPtr()->retain();
      if (isHeapRep(rep_)) releaseHeap();
      std::memcpy(raw_, o.raw_, sizeof raw_);
      aux_ = o.aux_;
      rep_ = o.rep_;
    }
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      if (isHeapRep(rep_)) releaseHeap();
      std::memcpy(raw_, o.raw_, sizeof raw_);
      aux_ = o.aux_;
      rep_ = o.rep_;
      o.rep_ = Rep::kNull;
    }
    return *this;
  }
  ~Value() {
    if (isHeapRep(rep_)) releaseHeap();
  }

  // -- constructors ---------------------------------------------------
  static Value null() noexcept { return Value{}; }
  static Value integer(std::int64_t v) noexcept {
    Value r;
    r.storeScalar(v);
    r.rep_ = Rep::kInt;
    return r;
  }
  /// Canonicalizing: a BigInt that fits int64 demotes to the inline
  /// representation (small never equals big).
  static Value integer(BigInt v);
  static Value real(double v) noexcept {
    Value r;
    r.storeScalar(v);
    r.rep_ = Rep::kReal;
    return r;
  }
  static Value string(std::string_view s) {
    if (s.size() <= kSsoCapacity) return ssoString(s.data(), s.size());
    return Value(new detail::StringBox(std::string(s)), Rep::kHeapStr);
  }
  static Value string(std::string&& s) {
    if (s.size() <= kSsoCapacity) return ssoString(s.data(), s.size());
    return Value(new detail::StringBox(std::move(s)), Rep::kHeapStr);
  }
  static Value string(const std::string& s) { return string(std::string_view(s)); }
  static Value string(const char* s) { return string(std::string_view(s)); }
  /// One-reserve concatenation (the ops::concat string×string fast
  /// path): each payload is copied exactly once, short results land in
  /// the SSO representation without touching the heap.
  static Value stringConcat(std::string_view a, std::string_view b);
  // The structure factories are templates over the handle's pointee so
  // their bodies (which destroy / detach an Rc) only instantiate at call
  // sites, where the payload classes are complete; the constraint checks
  // the type there. This also admits derived handles (Rc<Pipe> is a
  // co-expression value).
  template <class T>
    requires std::convertible_to<T*, ListImpl*>
  static Value list(Rc<T> l) noexcept { return fromHeap(std::move(l), Rep::kList); }
  template <class T>
    requires std::convertible_to<T*, TableImpl*>
  static Value table(Rc<T> t) noexcept { return fromHeap(std::move(t), Rep::kTable); }
  template <class T>
    requires std::convertible_to<T*, SetImpl*>
  static Value set(Rc<T> s) noexcept { return fromHeap(std::move(s), Rep::kSet); }
  template <class T>
    requires std::convertible_to<T*, RecordImpl*>
  static Value record(Rc<T> r) noexcept { return fromHeap(std::move(r), Rep::kRecord); }
  template <class T>
    requires std::convertible_to<T*, ProcImpl*>
  static Value proc(Rc<T> p) noexcept { return fromHeap(std::move(p), Rep::kProc); }
  template <class T>
    requires std::convertible_to<T*, CoExpression*>
  static Value coexpr(Rc<T> c) noexcept { return fromHeap(std::move(c), Rep::kCoExpr); }

  // -- observers ------------------------------------------------------
  [[nodiscard]] TypeTag tag() const noexcept { return kRepTag[static_cast<std::size_t>(rep_)]; }
  [[nodiscard]] bool isNull() const noexcept { return rep_ == Rep::kNull; }
  [[nodiscard]] bool isInteger() const noexcept {
    return rep_ == Rep::kInt || rep_ == Rep::kBigInt;
  }
  [[nodiscard]] bool isSmallInt() const noexcept { return rep_ == Rep::kInt; }
  [[nodiscard]] bool isReal() const noexcept { return rep_ == Rep::kReal; }
  [[nodiscard]] bool isString() const noexcept {
    return rep_ == Rep::kSso || rep_ == Rep::kHeapStr;
  }
  [[nodiscard]] bool isList() const noexcept { return rep_ == Rep::kList; }
  [[nodiscard]] bool isTable() const noexcept { return rep_ == Rep::kTable; }
  [[nodiscard]] bool isSet() const noexcept { return rep_ == Rep::kSet; }
  [[nodiscard]] bool isRecord() const noexcept { return rep_ == Rep::kRecord; }
  [[nodiscard]] bool isProc() const noexcept { return rep_ == Rep::kProc; }
  [[nodiscard]] bool isCoExpr() const noexcept { return rep_ == Rep::kCoExpr; }

  /// Unchecked accessors; call only after the corresponding is*() test.
  [[nodiscard]] std::int64_t smallInt() const noexcept {
    assert(rep_ == Rep::kInt);
    return loadScalar<std::int64_t>();
  }
  [[nodiscard]] const BigInt& bigInt() const noexcept {
    assert(rep_ == Rep::kBigInt);
    return static_cast<const detail::BigIntBox*>(heapPtr())->value();
  }
  [[nodiscard]] double real() const noexcept {
    assert(rep_ == Rep::kReal);
    return loadScalar<double>();
  }
  /// String payload as a view. For SSO values the view points INTO this
  /// Value: it is invalidated by assigning to / moving from / destroying
  /// the Value it came from — never cache it across such an operation
  /// (and never call str() on a temporary you let die).
  [[nodiscard]] std::string_view str() const noexcept {
    if (rep_ == Rep::kSso) return {reinterpret_cast<const char*>(raw_), aux_};
    assert(rep_ == Rep::kHeapStr);
    return static_cast<const detail::StringBox*>(heapPtr())->str();
  }
  [[nodiscard]] const ListPtr& list() const noexcept { return asRc<ListImpl>(Rep::kList); }
  [[nodiscard]] const TablePtr& table() const noexcept { return asRc<TableImpl>(Rep::kTable); }
  [[nodiscard]] const SetPtr& set() const noexcept { return asRc<SetImpl>(Rep::kSet); }
  [[nodiscard]] const RecordPtr& record() const noexcept { return asRc<RecordImpl>(Rep::kRecord); }
  [[nodiscard]] const ProcPtr& proc() const noexcept { return asRc<ProcImpl>(Rep::kProc); }
  [[nodiscard]] const CoExprPtr& coExpr() const noexcept { return asRc<CoExpression>(Rep::kCoExpr); }

  // -- coercion (Icon run-time errors 101/102/103 on failure) ---------
  /// Coerce to integer (strings parsed, reals accepted if integral).
  /// Returns nullopt if not coercible (caller raises or fails).
  [[nodiscard]] std::optional<Value> toIntegerValue() const;
  /// Coerce to int64; errors if out of range or not coercible.
  [[nodiscard]] std::int64_t requireInt64(std::string_view what = "value") const;
  /// Coerce to BigInt; errors if not coercible.
  [[nodiscard]] BigInt requireBigInt(std::string_view what = "value") const;
  /// Coerce to a numeric Value (integer or real), as Icon's numeric().
  [[nodiscard]] std::optional<Value> toNumeric() const;
  /// Coerce to double; errors if not numeric.
  [[nodiscard]] double requireReal(std::string_view what = "value") const;
  /// Coerce to string (numbers formatted, strings as-is); errors otherwise.
  [[nodiscard]] std::string requireString(std::string_view what = "value") const;

  // -- Icon semantics --------------------------------------------------
  /// Icon type() name: "null", "integer", "real", "string", "list",
  /// "table", "set", "procedure", "co-expression".
  [[nodiscard]] std::string typeName() const;
  /// Icon image(): a human-readable, type-revealing rendering.
  [[nodiscard]] std::string image() const;
  /// Value rendering for write(): strings unquoted, numbers formatted.
  [[nodiscard]] std::string toDisplayString() const;

  /// Icon === equivalence: numbers by value within the same type class,
  /// strings by content, structures by identity.
  [[nodiscard]] bool equals(const Value& other) const;
  /// Total order across all values: type rank, then value (structures by
  /// address). Basis for sort() and ordered containers.
  [[nodiscard]] int compare(const Value& other) const;
  /// Hash consistent with equals().
  [[nodiscard]] std::size_t hash() const;

  /// Icon *x size: string length, list/table/set size; errors otherwise.
  [[nodiscard]] std::int64_t size() const;

  /// Pin this value's heap payload, if any, for the life of the process
  /// (RcBase::makeImmortal): only for values a never-destroyed registry
  /// owns before it shares them.
  void makeImmortal() const noexcept {
    if (isHeapRep(rep_)) heapPtr()->makeImmortal();
  }

 private:
  /// Physical representation. Inline reps first; isHeapRep is one
  /// compare. The heap pointer is always the RcBase upcast of the
  /// payload object (address-preserving: RcBase is every payload's
  /// polymorphic primary base — see rc.hpp).
  enum class Rep : std::uint8_t {
    kNull = 0,
    kInt,
    kReal,
    kSso,
    kHeapStr,  // first heap rep
    kBigInt,
    kList,
    kTable,
    kSet,
    kRecord,
    kProc,
    kCoExpr,
  };
  static constexpr std::size_t kRepCount = 12;
  static constexpr TypeTag kRepTag[kRepCount] = {
      TypeTag::Null, TypeTag::Integer, TypeTag::Real,   TypeTag::String,
      TypeTag::String, TypeTag::Integer, TypeTag::List, TypeTag::Table,
      TypeTag::Set,  TypeTag::Record,  TypeTag::Proc,   TypeTag::CoExpr,
  };
  static constexpr bool isHeapRep(Rep r) noexcept { return r >= Rep::kHeapStr; }

  /// Adopt a heap payload (refcount already 1; null is a program error).
  Value(RcBase* p, Rep rep) noexcept : aux_(0), rep_(rep) {
    assert(p != nullptr);
    std::memcpy(raw_, &p, sizeof p);
    std::memset(raw_ + sizeof p, 0, sizeof raw_ - sizeof p);
  }

  /// Adopt a payload handle. The payload types are incomplete here, so
  /// the upcast is spelled reinterpret_cast; it is address-preserving by
  /// the RcBase-is-primary-base contract (static_asserted in value.cpp
  /// where the types are complete).
  template <class T>
  static Value fromHeap(Rc<T> p, Rep rep) noexcept {
    return Value(reinterpret_cast<RcBase*>(p.detach()), rep);
  }

  static Value ssoString(const char* data, std::size_t n) noexcept {
    Value r;
    if (n != 0) std::memcpy(r.raw_, data, n);
    r.aux_ = static_cast<std::uint8_t>(n);
    r.rep_ = Rep::kSso;
    return r;
  }

  template <class T>
  void storeScalar(T v) noexcept {
    static_assert(sizeof(T) <= sizeof(raw_));
    std::memcpy(raw_, &v, sizeof v);
    std::memset(raw_ + sizeof v, 0, sizeof raw_ - sizeof v);
  }
  template <class T>
  [[nodiscard]] T loadScalar() const noexcept {
    T v;
    std::memcpy(&v, raw_, sizeof v);
    return v;
  }
  [[nodiscard]] RcBase* heapPtr() const noexcept { return loadScalar<RcBase*>(); }

  /// Reinterpret the stored pointer bytes as the typed owning handle.
  /// Sound because Rc<T> is exactly one T* wide and the stored RcBase*
  /// is address-identical to the payload's T* (primary base at offset
  /// zero); the returned reference borrows this Value's ownership.
  template <class T>
  [[nodiscard]] const Rc<T>& asRc(Rep expect) const noexcept {
    static_assert(sizeof(Rc<T>) == sizeof(T*));
    assert(rep_ == expect);
    (void)expect;
    return *reinterpret_cast<const Rc<T>*>(raw_);
  }

  /// Drop this Value's reference to its heap payload. Inline: this sits
  /// on every heap-Value destroy/overwrite path, and the call overhead
  /// showed next to the atomic itself in backtracking profiles. The
  /// virtual dtor reaches the payload class on the last release.
  void releaseHeap() noexcept {
    RcBase* p = heapPtr();
    if (p->release()) destroyRc(p);
  }

  alignas(8) unsigned char raw_[14];
  std::uint8_t aux_;  // SSO length (0 otherwise)
  Rep rep_;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte tagged union");
static_assert(alignof(Value) == 8);

/// Hash/equality functors so Values can key unordered containers.
struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a.equals(b); }
};

// -- arithmetic & comparison (goal-directed flavours) ------------------
//
// Arithmetic raises IconError on non-numeric operands. Comparisons follow
// Icon: they *fail* (nullopt) rather than produce false, and on success
// yield the right operand.

namespace ops {

Value add(const Value& a, const Value& b);
Value sub(const Value& a, const Value& b);
Value mul(const Value& a, const Value& b);
Value div(const Value& a, const Value& b);
Value mod(const Value& a, const Value& b);
Value power(const Value& a, const Value& b);
Value negate(const Value& a);

/// Numeric comparisons: x < y yields y, or fails.
std::optional<Value> numLT(const Value& a, const Value& b);
std::optional<Value> numLE(const Value& a, const Value& b);
std::optional<Value> numGT(const Value& a, const Value& b);
std::optional<Value> numGE(const Value& a, const Value& b);
std::optional<Value> numEQ(const Value& a, const Value& b);
std::optional<Value> numNE(const Value& a, const Value& b);

/// Value equivalence (===): yields b or fails.
std::optional<Value> valEQ(const Value& a, const Value& b);
std::optional<Value> valNE(const Value& a, const Value& b);

/// String concatenation (||).
Value concat(const Value& a, const Value& b);
/// List concatenation (|||): a new list with the elements of both.
Value listConcat(const Value& a, const Value& b);

}  // namespace ops

}  // namespace congen
