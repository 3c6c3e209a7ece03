#include "builtins/builtins.hpp"

#include <chrono>
#include <cmath>
#include <iostream>
#include <mutex>
#include <unordered_map>

#include "kernel/basic.hpp"
#include "kernel/coexpression.hpp"
#include "kernel/compose.hpp"
#include "kernel/error_env.hpp"
#include "kernel/gen.hpp"
#include "kernel/ops.hpp"
#include "kernel/scan.hpp"
#include "obs/metrics.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"

namespace congen::builtins {

namespace {

/// Generator that yields at most one precomputed value — the result shape
/// of most builtins.
GenPtr singleton(std::optional<Value> v) {
  if (!v) return FailGen::create();
  return ConstGen::create(std::move(*v));
}

std::mutex& ioMutex() {
  static std::mutex m;
  return m;
}

Value argOr(const std::vector<Value>& args, std::size_t i, Value fallback) {
  return i < args.size() ? args[i] : fallback;
}

// ---------------------------------------------------------------------
// the builtin table
// ---------------------------------------------------------------------

using Table = std::unordered_map<std::string, ProcPtr>;

void addNative(Table& t, const std::string& name,
               std::function<std::optional<Value>(std::vector<Value>&)> fn) {
  t.emplace(name, makeNative(name, std::move(fn)));
}

void addNativeGen(Table& t, const std::string& name,
                  std::function<GenPtr(std::vector<Value>&)> fn) {
  t.emplace(name, makeNativeGen(name, std::move(fn)));
}

Table buildTable() {
  Table t;

  // ---- I/O ----------------------------------------------------------
  addNative(t, "write", [](std::vector<Value>& args) -> std::optional<Value> {
    std::lock_guard lock(ioMutex());
    for (const auto& a : args) std::cout << a.toDisplayString();
    std::cout << '\n';
    return args.empty() ? Value::null() : args.back();
  });
  addNative(t, "writes", [](std::vector<Value>& args) -> std::optional<Value> {
    std::lock_guard lock(ioMutex());
    for (const auto& a : args) std::cout << a.toDisplayString();
    std::cout.flush();
    return args.empty() ? Value::null() : args.back();
  });
  addNative(t, "read", [](std::vector<Value>&) -> std::optional<Value> {
    std::lock_guard lock(ioMutex());
    std::string line;
    if (!std::getline(std::cin, line)) return std::nullopt;  // EOF: fail
    return Value::string(std::move(line));
  });
  addNative(t, "stop", [](std::vector<Value>& args) -> std::optional<Value> {
    std::string msg;
    for (const auto& a : args) msg += a.toDisplayString();
    throw IconError(500, "stop: " + msg);
  });

  // ---- structures ----------------------------------------------------
  addNative(t, "list", [](std::vector<Value>& args) -> std::optional<Value> {
    auto l = ListImpl::create();
    if (!args.empty()) {
      const std::int64_t n = args[0].requireInt64("size of list()");
      const Value fill = argOr(args, 1, Value::null());
      for (std::int64_t i = 0; i < n; ++i) l->put(fill);
    }
    return Value::list(std::move(l));
  });
  addNative(t, "table", [](std::vector<Value>& args) -> std::optional<Value> {
    return Value::table(TableImpl::create(argOr(args, 0, Value::null())));
  });
  addNative(t, "set", [](std::vector<Value>& args) -> std::optional<Value> {
    auto s = SetImpl::create();
    if (!args.empty() && args[0].isList()) {
      for (const auto& e : args[0].list()->elements()) s->insert(e);
    }
    return Value::set(std::move(s));
  });
  addNative(t, "put", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty() || !args[0].isList()) throw errListExpected("put");
    for (std::size_t i = 1; i < args.size(); ++i) args[0].list()->put(args[i]);
    return args[0];
  });
  addNative(t, "push", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty() || !args[0].isList()) throw errListExpected("push");
    for (std::size_t i = 1; i < args.size(); ++i) args[0].list()->push(args[i]);
    return args[0];
  });
  addNative(t, "get", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty() || !args[0].isList()) throw errListExpected("get");
    return args[0].list()->get();  // fails when empty
  });
  addNative(t, "pop", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty() || !args[0].isList()) throw errListExpected("pop");
    return args[0].list()->get();
  });
  addNative(t, "pull", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty() || !args[0].isList()) throw errListExpected("pull");
    return args[0].list()->pull();
  });
  addNative(t, "insert", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) throw errInvalidValue("insert with no arguments");
    if (args[0].isSet()) {
      args[0].set()->insert(argOr(args, 1, Value::null()));
      return args[0];
    }
    if (args[0].isTable()) {
      args[0].table()->insert(argOr(args, 1, Value::null()), argOr(args, 2, Value::null()));
      return args[0];
    }
    throw errInvalidValue("insert into " + args[0].typeName());
  });
  addNative(t, "delete", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) throw errInvalidValue("delete with no arguments");
    if (args[0].isSet()) {
      args[0].set()->erase(argOr(args, 1, Value::null()));
      return args[0];
    }
    if (args[0].isTable()) {
      args[0].table()->erase(argOr(args, 1, Value::null()));
      return args[0];
    }
    throw errInvalidValue("delete from " + args[0].typeName());
  });
  addNative(t, "member", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) throw errInvalidValue("member with no arguments");
    const Value probe = argOr(args, 1, Value::null());
    const bool yes = args[0].isSet()    ? args[0].set()->member(probe)
                     : args[0].isTable() ? args[0].table()->member(probe)
                                         : throw errInvalidValue("member of " + args[0].typeName());
    if (!yes) return std::nullopt;
    return probe;
  });
  addNativeGen(t, "key", [](std::vector<Value>& args) -> GenPtr {
    if (args.empty() || !args[0].isTable()) throw errInvalidValue("key of non-table");
    return ValuesGen::create(args[0].table()->sortedKeys());
  });
  addNative(t, "sort", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) throw errInvalidValue("sort with no arguments");
    std::vector<Value> elems;
    if (args[0].isList()) {
      const auto& src = args[0].list()->elements();
      elems.assign(src.begin(), src.end());
      std::sort(elems.begin(), elems.end(),
                [](const Value& a, const Value& b) { return a.compare(b) < 0; });
    } else if (args[0].isSet()) {
      elems = args[0].set()->sortedMembers();
    } else if (args[0].isTable()) {
      for (const auto& k : args[0].table()->sortedKeys()) {
        auto pair = ListImpl::create();
        pair->put(k);
        pair->put(args[0].table()->lookup(k));
        elems.push_back(Value::list(std::move(pair)));
      }
    } else {
      throw errInvalidValue("sort of " + args[0].typeName());
    }
    return Value::list(ListImpl::create(std::deque<Value>(elems.begin(), elems.end())));
  });
  addNative(t, "reverse", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) throw errInvalidValue("reverse with no arguments");
    if (args[0].isString()) {
      std::string s(args[0].str());
      std::reverse(s.begin(), s.end());
      return Value::string(std::move(s));
    }
    if (args[0].isList()) {
      std::deque<Value> d = args[0].list()->elements();
      std::reverse(d.begin(), d.end());
      return Value::list(ListImpl::create(std::move(d)));
    }
    throw errInvalidValue("reverse of " + args[0].typeName());
  });
  addNative(t, "copy", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) return Value::null();
    const Value& v = args[0];
    if (v.isList()) return Value::list(ListImpl::create(v.list()->elements()));
    if (v.isTable()) {
      auto copy = TableImpl::create(v.table()->defaultValue());
      for (const auto& [k, val] : v.table()->entries()) copy->insert(k, val);
      return Value::table(std::move(copy));
    }
    if (v.isSet()) {
      auto copy = SetImpl::create();
      for (const auto& m : v.set()->members()) copy->insert(m);
      return Value::set(std::move(copy));
    }
    return v;  // immutable types copy trivially
  });

  // ---- type & conversion ---------------------------------------------
  addNative(t, "type", [](std::vector<Value>& args) -> std::optional<Value> {
    return Value::string(argOr(args, 0, Value::null()).typeName());
  });
  addNative(t, "image", [](std::vector<Value>& args) -> std::optional<Value> {
    return Value::string(argOr(args, 0, Value::null()).image());
  });
  addNative(t, "numeric", [](std::vector<Value>& args) -> std::optional<Value> {
    return argOr(args, 0, Value::null()).toNumeric();  // fails if not numeric
  });
  addNative(t, "integer", [](std::vector<Value>& args) -> std::optional<Value> {
    const Value v = argOr(args, 0, Value::null());
    if (args.size() >= 2) {
      // integer(s, radix): parse a string in the given radix (the
      // wordToNumber of Fig. 3 is integer(word, 36)).
      const auto radix = static_cast<unsigned>(args[1].requireInt64("radix"));
      auto big = BigInt::parse(v.requireString("integer()"), radix);
      if (!big) return std::nullopt;
      return Value::integer(*std::move(big));
    }
    return v.toIntegerValue();
  });
  addNative(t, "real", [](std::vector<Value>& args) -> std::optional<Value> {
    auto n = argOr(args, 0, Value::null()).toNumeric();
    if (!n) return std::nullopt;
    if (n->isReal()) return n;
    return Value::real(n->isSmallInt() ? static_cast<double>(n->smallInt()) : n->bigInt().toDouble());
  });
  addNative(t, "string", [](std::vector<Value>& args) -> std::optional<Value> {
    return Value::string(argOr(args, 0, Value::null()).toDisplayString());
  });

  // ---- arithmetic / math ----------------------------------------------
  addNative(t, "abs", [](std::vector<Value>& args) -> std::optional<Value> {
    auto n = argOr(args, 0, Value::null()).toNumeric();
    if (!n) throw errNumericExpected("abs");
    if (n->isReal()) return Value::real(std::fabs(n->real()));
    if (n->isSmallInt() && n->smallInt() != INT64_MIN) return Value::integer(std::abs(n->smallInt()));
    return Value::integer(n->requireBigInt("abs").abs());
  });
  addNative(t, "min", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) return std::nullopt;
    Value best = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (ops::numLT(args[i], best)) best = args[i];
    }
    return best;
  });
  addNative(t, "max", [](std::vector<Value>& args) -> std::optional<Value> {
    if (args.empty()) return std::nullopt;
    Value best = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (ops::numGT(args[i], best)) best = args[i];
    }
    return best;
  });
  addNative(t, "sqrt", [](std::vector<Value>& args) -> std::optional<Value> {
    const Value v = argOr(args, 0, Value::null());
    // Icon sqrt returns a real; huge integers go through BigInt::isqrt to
    // keep precision (matching BigInteger-based hashing in the paper).
    if (v.isInteger() && !v.isSmallInt()) return Value::real(v.bigInt().isqrt().toDouble());
    const double d = v.requireReal("sqrt");
    if (d < 0) throw errInvalidValue("sqrt of negative");
    return Value::real(std::sqrt(d));
  });
  addNative(t, "isqrt", [](std::vector<Value>& args) -> std::optional<Value> {
    return Value::integer(argOr(args, 0, Value::null()).requireBigInt("isqrt").isqrt());
  });
  using MathFn = double (*)(double);
  for (const auto& [name, fn] : std::initializer_list<std::pair<const char*, MathFn>>{
           {"exp", static_cast<MathFn>(std::exp)}, {"log", static_cast<MathFn>(std::log)},
           {"sin", static_cast<MathFn>(std::sin)}, {"cos", static_cast<MathFn>(std::cos)},
           {"tan", static_cast<MathFn>(std::tan)}, {"atan", static_cast<MathFn>(std::atan)}}) {
    addNative(t, name, [fn = fn, name = std::string(name)](std::vector<Value>& args) -> std::optional<Value> {
      return Value::real(fn(argOr(args, 0, Value::null()).requireReal(name)));
    });
  }

  // ---- number theory (heavyweight hash components) --------------------
  addNative(t, "isprime", [](std::vector<Value>& args) -> std::optional<Value> {
    // Goal-directed: produce the argument if prime, otherwise fail
    // (matches isprime() in the paper's Section II example). Reads the
    // argument in place: this sits on the interpreters' hot search path.
    if (!args.empty() && args[0].isSmallInt()) {  // no BigInt materialization
      const auto n = args[0].smallInt();
      if (n < 2 || !BigInt::isPrimeU64(static_cast<std::uint64_t>(n))) return std::nullopt;
      return args[0];
    }
    const Value v = argOr(args, 0, Value::null());
    if (!v.requireBigInt("isprime").isProbablePrime()) return std::nullopt;
    return v;
  });
  addNative(t, "nextprime", [](std::vector<Value>& args) -> std::optional<Value> {
    return Value::integer(argOr(args, 0, Value::null()).requireBigInt("nextprime").nextProbablePrime());
  });

  // ---- strings ---------------------------------------------------------
  addNativeGen(t, "find", [](std::vector<Value>& args) -> GenPtr {
    // find(needle [, haystack [, i]]): generate every 1-based position;
    // haystack and i default to &subject and &pos.
    const std::string needle = argOr(args, 0, Value::null()).requireString("find needle");
    const std::string hay = args.size() >= 2 ? args[1].requireString("find haystack")
                                             : std::string(ScanEnv::current().subject.str());
    const std::int64_t start = args.size() >= 3 ? args[2].requireInt64("find position")
                               : args.size() >= 2 ? 1
                                                  : ScanEnv::current().pos;
    std::vector<Value> positions;
    if (!needle.empty()) {
      const auto from = start >= 1 ? static_cast<std::size_t>(start - 1) : 0;
      for (std::size_t pos = hay.find(needle, from); pos != std::string::npos;
           pos = hay.find(needle, pos + 1)) {
        positions.push_back(Value::integer(static_cast<std::int64_t>(pos) + 1));
      }
    }
    return ValuesGen::create(std::move(positions));
  });
  addNative(t, "split", [](std::vector<Value>& args) -> std::optional<Value> {
    // split(s [, separators]): list of fields; default whitespace — the
    // splitWords of Fig. 3.
    const std::string s = argOr(args, 0, Value::null()).requireString("split");
    const std::string seps = args.size() >= 2 ? args[1].requireString("split separators") : " \t\r\n";
    auto out = ListImpl::create();
    std::string cur;
    for (const char c : s) {
      if (seps.find(c) != std::string::npos) {
        if (!cur.empty()) out->put(Value::string(std::move(cur)));
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    if (!cur.empty()) out->put(Value::string(std::move(cur)));
    return Value::list(std::move(out));
  });
  addNative(t, "trim", [](std::vector<Value>& args) -> std::optional<Value> {
    std::string s = argOr(args, 0, Value::null()).requireString("trim");
    const auto end = s.find_last_not_of(" \t\r\n");
    s.erase(end == std::string::npos ? 0 : end + 1);
    return Value::string(std::move(s));
  });
  addNative(t, "map", [](std::vector<Value>& args) -> std::optional<Value> {
    // map(s, from, to): character mapping (Icon map()).
    std::string s = argOr(args, 0, Value::null()).requireString("map");
    const std::string from = argOr(args, 1, Value::string("ABCDEFGHIJKLMNOPQRSTUVWXYZ")).requireString("map from");
    const std::string to = argOr(args, 2, Value::string("abcdefghijklmnopqrstuvwxyz")).requireString("map to");
    if (from.size() != to.size()) throw errInvalidValue("map: from/to lengths differ");
    for (auto& c : s) {
      const auto pos = from.find(c);
      if (pos != std::string::npos) c = to[pos];
    }
    return Value::string(std::move(s));
  });

  // ---- more strings -----------------------------------------------------
  addNative(t, "left", [](std::vector<Value>& args) -> std::optional<Value> {
    // left(s, n, pad): s left-justified in a field of width n.
    std::string s = argOr(args, 0, Value::null()).requireString("left");
    const auto n = static_cast<std::size_t>(argOr(args, 1, Value::integer(1)).requireInt64("left width"));
    const std::string pad = args.size() >= 3 ? args[2].requireString("left pad") : " ";
    if (s.size() > n) return Value::string(s.substr(0, n));
    while (s.size() < n) s += pad.empty() ? ' ' : pad[(s.size()) % pad.size()];
    return Value::string(std::move(s));
  });
  addNative(t, "right", [](std::vector<Value>& args) -> std::optional<Value> {
    std::string s = argOr(args, 0, Value::null()).requireString("right");
    const auto n = static_cast<std::size_t>(argOr(args, 1, Value::integer(1)).requireInt64("right width"));
    const std::string pad = args.size() >= 3 ? args[2].requireString("right pad") : " ";
    if (s.size() > n) return Value::string(s.substr(s.size() - n));
    std::string out;
    while (out.size() + s.size() < n) out += pad.empty() ? ' ' : pad[out.size() % pad.size()];
    return Value::string(out + s);
  });
  addNative(t, "repl", [](std::vector<Value>& args) -> std::optional<Value> {
    const std::string s = argOr(args, 0, Value::null()).requireString("repl");
    const std::int64_t n = argOr(args, 1, Value::integer(0)).requireInt64("repl count");
    if (n < 0) throw errInvalidValue("repl with negative count");
    std::string out;
    out.reserve(s.size() * static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) out += s;
    return Value::string(std::move(out));
  });
  addNative(t, "ord", [](std::vector<Value>& args) -> std::optional<Value> {
    const std::string s = argOr(args, 0, Value::null()).requireString("ord");
    if (s.size() != 1) throw errInvalidValue("ord of a non-single-character string");
    return Value::integer(static_cast<unsigned char>(s[0]));
  });
  addNative(t, "char", [](std::vector<Value>& args) -> std::optional<Value> {
    const std::int64_t c = argOr(args, 0, Value::null()).requireInt64("char");
    if (c < 0 || c > 255) throw errInvalidValue("char out of range");
    return Value::string(std::string(1, static_cast<char>(c)));
  });
  addNativeGen(t, "upto", [](std::vector<Value>& args) -> GenPtr {
    // upto(c [, s [, i]]): every position in s holding a character of c,
    // from i on. s and i default to &subject and &pos (Icon).
    const std::string cset = builtins::arg(args, 0).requireString("upto cset");
    const std::string s = args.size() >= 2 ? args[1].requireString("upto subject")
                                           : std::string(ScanEnv::current().subject.str());
    const std::int64_t start = args.size() >= 3 ? args[2].requireInt64("upto position")
                               : args.size() >= 2 ? 1
                                                  : ScanEnv::current().pos;
    std::vector<Value> positions;
    for (std::size_t i = start >= 1 ? static_cast<std::size_t>(start - 1) : 0; i < s.size(); ++i) {
      if (cset.find(s[i]) != std::string::npos) {
        positions.push_back(Value::integer(static_cast<std::int64_t>(i) + 1));
      }
    }
    return ValuesGen::create(std::move(positions));
  });
  addNative(t, "any", [](std::vector<Value>& args) -> std::optional<Value> {
    // any(c [, s [, i]]): succeeds with i+1 if s[i] is in c; s and i
    // default to the scanning environment.
    const std::string cset = builtins::arg(args, 0).requireString("any cset");
    const std::string s = args.size() >= 2 ? args[1].requireString("any subject")
                                           : std::string(ScanEnv::current().subject.str());
    const std::int64_t i = args.size() >= 3 ? args[2].requireInt64("any position")
                           : args.size() >= 2 ? 1
                                              : ScanEnv::current().pos;
    if (i < 1 || static_cast<std::size_t>(i) > s.size()) return std::nullopt;
    if (cset.find(s[static_cast<std::size_t>(i - 1)]) == std::string::npos) return std::nullopt;
    return Value::integer(i + 1);
  });
  addNative(t, "many", [](std::vector<Value>& args) -> std::optional<Value> {
    // many(c [, s [, i]]): longest run of characters of c starting at i;
    // defaults to the scanning environment.
    const std::string cset = builtins::arg(args, 0).requireString("many cset");
    const std::string s = args.size() >= 2 ? args[1].requireString("many subject")
                                           : std::string(ScanEnv::current().subject.str());
    std::int64_t i = args.size() >= 3 ? args[2].requireInt64("many position")
                     : args.size() >= 2 ? 1
                                        : ScanEnv::current().pos;
    if (i < 1 || static_cast<std::size_t>(i) > s.size()) return std::nullopt;
    std::int64_t j = i;
    while (static_cast<std::size_t>(j) <= s.size() &&
           cset.find(s[static_cast<std::size_t>(j - 1)]) != std::string::npos) {
      ++j;
    }
    if (j == i) return std::nullopt;
    return Value::integer(j);
  });
  addNative(t, "match", [](std::vector<Value>& args) -> std::optional<Value> {
    // match(s1 [, s2 [, i]]): position past s1 if s2 starts with s1 at
    // i; defaults to the scanning environment.
    const std::string needle = builtins::arg(args, 0).requireString("match needle");
    const std::string s = args.size() >= 2 ? args[1].requireString("match subject")
                                           : std::string(ScanEnv::current().subject.str());
    const std::int64_t i = args.size() >= 3 ? args[2].requireInt64("match position")
                           : args.size() >= 2 ? 1
                                              : ScanEnv::current().pos;
    if (i < 1 || static_cast<std::size_t>(i - 1) + needle.size() > s.size()) return std::nullopt;
    if (s.compare(static_cast<std::size_t>(i - 1), needle.size(), needle) != 0) return std::nullopt;
    return Value::integer(i + static_cast<std::int64_t>(needle.size()));
  });

  // ---- string scanning (reversible matching functions) -------------------
  addNativeGen(t, "tab", [](std::vector<Value>& args) -> GenPtr {
    return makeTabGen(ConstGen::create(builtins::arg(args, 0)));
  });
  addNativeGen(t, "move", [](std::vector<Value>& args) -> GenPtr {
    return makeMoveGen(ConstGen::create(builtins::arg(args, 0)));
  });
  addNative(t, "pos", [](std::vector<Value>& args) -> std::optional<Value> {
    // pos(i): succeeds (with &pos) when the scan position is i.
    const auto p = ScanEnv::resolvePos(builtins::arg(args, 0).requireInt64("pos"));
    if (!p || *p != ScanEnv::current().pos) return std::nullopt;
    return Value::integer(ScanEnv::current().pos);
  });

  // ---- generators ------------------------------------------------------
  addNativeGen(t, "seq", [](std::vector<Value>& args) -> GenPtr {
    // seq(from, by): the unbounded arithmetic sequence.
    const Value from = argOr(args, 0, Value::integer(1));
    const Value by = argOr(args, 1, Value::integer(1));
    struct SeqGenInf final : Gen {
      Value from, by, current;
      bool started = false;
      SeqGenInf(Value f, Value b) : from(std::move(f)), by(std::move(b)) {}
      bool doNext(Result& out) override {
        current = started ? ops::add(current, by) : from;
        started = true;
        out.set(current);
        return true;
      }
      void doRestart() override { started = false; }
    };
    return std::make_shared<SeqGenInf>(from, by);
  });

  // ---- cancellation / deadlines / error handling ---------------------
  addNative(t, "timeout", [](std::vector<Value>& args) -> std::optional<Value> {
    // timeout(c, ms): activate c, but give up (fail) if no result
    // arrives within ms milliseconds. The deadline bounds *waiting* —
    // a plain co-expression computes on this thread and ignores it; a
    // pipe abandons the wait and stays re-activatable.
    const Value c = argOr(args, 0, Value::null());
    if (!c.isCoExpr()) throw errCoExprExpected("timeout: " + c.image());
    const std::int64_t ms = argOr(args, 1, Value::null()).requireInt64("timeout milliseconds");
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    return c.coExpr()->activateUntil(deadline);
  });
  addNative(t, "errorclear", [](std::vector<Value>&) -> std::optional<Value> {
    ErrorEnv::clear();
    return Value::null();
  });

  // ---- monitoring ------------------------------------------------------
  addNative(t, "metricson", [](std::vector<Value>&) -> std::optional<Value> {
    obs::enableMetrics();
    return Value::null();
  });
  addNative(t, "metricsoff", [](std::vector<Value>&) -> std::optional<Value> {
    obs::disableMetrics();
    return Value::null();
  });
  addNative(t, "metrics", [](std::vector<Value>&) -> std::optional<Value> {
    // metrics(): a table of every registered metric. Counters and gauges
    // map name -> integer; histograms contribute name.count / name.sum.
    const auto snap = obs::Registry::global().snapshot();
    auto table = TableImpl::create(Value::null());
    for (const auto& [name, v] : snap.counters) {
      table->insert(Value::string(name), Value::integer(static_cast<std::int64_t>(v)));
    }
    for (const auto& [name, v] : snap.gauges) {
      table->insert(Value::string(name), Value::integer(v));
    }
    for (const auto& h : snap.histograms) {
      table->insert(Value::string(h.name + ".count"),
                    Value::integer(static_cast<std::int64_t>(h.count)));
      table->insert(Value::string(h.name + ".sum"),
                    Value::integer(static_cast<std::int64_t>(h.sum)));
    }
    return Value::table(std::move(table));
  });

  // ---- resource governance (runtime/governor.hpp) ----------------------
  addNative(t, "setquota", [](std::vector<Value>& args) -> std::optional<Value> {
    // setquota(name, n): set one budget on this thread's session
    // governor (lazily created — limitless — for code running outside a
    // governed Interpreter, so scripts behave identically interpreted
    // and emitted). The update is tighten-only
    // against the host's envelope: on a script-owned budget n = 0
    // removes it, but a limit imposed by the embedder / congen-run
    // --max-* is a ceiling — n clamps to it and n = 0 restores it, so
    // a contained session can never loosen its own containment.
    // Returns the effective limit.
    const std::string name(argOr(args, 0, Value::null()).requireString("setquota budget"));
    const std::int64_t n = argOr(args, 1, Value::null()).requireInt64("setquota value");
    if (n < 0) throw errInvalidValue("setquota: " + std::to_string(n));
    governor::Budget budget;
    if (name == "fuel") {
      budget = governor::Budget::Fuel;
    } else if (name == "heap") {
      budget = governor::Budget::Heap;
    } else if (name == "pipes") {
      budget = governor::Budget::Pipes;
    } else if (name == "coexprs") {
      budget = governor::Budget::Coexprs;
    } else if (name == "pipedepth") {
      budget = governor::Budget::PipeDepth;
    } else if (name == "depth") {
      budget = governor::Budget::Depth;
    } else {
      throw errInvalidValue("setquota budget: " + name);
    }
    auto gov = governor::currentOrThreadDefault();
    if (gov == nullptr) return std::nullopt;  // unreachable in practice
    const std::uint64_t effective = gov->setScriptLimit(budget, static_cast<std::uint64_t>(n));
    return Value::integer(static_cast<std::int64_t>(effective));
  });
  addNative(t, "quota", [](std::vector<Value>&) -> std::optional<Value> {
    // quota(): a table of this session's budgets and usage. Limits and
    // live counts are deterministic at language level; "fuel_spent" /
    // "heap_reserved" are path- and batching-dependent diagnostics —
    // conformance scripts must not print them.
    auto gov = governor::currentOrThreadDefault();
    auto table = TableImpl::create(Value::null());
    if (gov != nullptr) {
      const governor::Limits limits = gov->limits();
      const governor::Usage usage = gov->usage();
      const auto put = [&table](const char* key, std::uint64_t v) {
        table->insert(Value::string(key), Value::integer(static_cast<std::int64_t>(v)));
      };
      put("fuel", limits.maxFuel);
      put("heap", limits.maxHeapBytes);
      put("pipes", limits.maxPipes);
      put("coexprs", limits.maxCoexprs);
      put("pipedepth", limits.maxPipeDepth);
      put("depth", limits.maxDepth);
      put("fuel_spent", usage.fuelSpent);
      put("heap_reserved", usage.heapReserved);
      put("live_pipes", usage.livePipes);
      put("live_coexprs", usage.liveCoexprs);
      put("quota_trips", usage.quotaTrips);
    }
    return Value::table(std::move(table));
  });

  return t;
}

const Table& table() {
  // Never destroyed, and every registered procedure is immortalized:
  // builtin procs are copied into Values on every compiled call site
  // (kConst pushes one per invocation), and with the registry pinned for
  // the process lifetime those copies need no refcount traffic at all
  // (RcBase::kImmortalBit). The leaked map keeps the payloads reachable
  // at exit, so leak checkers report nothing.
  static const Table* t = [] {
    auto* built = new Table(buildTable());
    for (const auto& [name, proc] : *built) proc->makeImmortal();
    return built;
  }();
  return *t;
}

}  // namespace

ProcPtr makeNative(std::string name,
                   std::function<std::optional<Value>(std::vector<Value>&)> fn) {
  auto proc = ProcImpl::create(name, [fn](std::vector<Value> args) -> GenPtr {
    return singleton(fn(args));
  });
  // Expose the direct form too: the VM invokes simple natives without
  // the singleton-generator wrapper (same fn, so same semantics).
  proc->setNative(std::move(fn));
  return proc;
}

ProcPtr makeNativeGen(std::string name, std::function<GenPtr(std::vector<Value>&)> fn) {
  return ProcImpl::create(name, [fn = std::move(fn)](std::vector<Value> args) -> GenPtr {
    return fn(args);
  });
}

ProcPtr lookup(const std::string& name) {
  const auto it = table().find(name);
  return it == table().end() ? nullptr : it->second;
}

const Value* lookupConst(const std::string& name) {
  // One Value per builtin for the process lifetime: resolution-time
  // lookups hand out stable pointers into this table. Never destroyed,
  // like table() — the payloads are immortal, so the map must stay
  // reachable for leak checkers.
  static const auto* consts = [] {
    auto* m = new std::unordered_map<std::string, Value>();
    for (const auto& [n, proc] : table()) m->emplace(n, Value::proc(proc));
    return m;
  }();
  const auto it = consts->find(name);
  return it == consts->end() ? nullptr : &it->second;
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  out.reserve(table().size());
  for (const auto& [name, proc] : table()) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

Value arg(const std::vector<Value>& args, std::size_t i) {
  return i < args.size() ? args[i] : Value::null();
}

}  // namespace congen::builtins
