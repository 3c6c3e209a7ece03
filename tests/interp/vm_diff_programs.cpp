// vm_diff_programs — build-time generator for the VM-vs-emitted
// differential suite (vm_differential_test.cpp).
//
//   vm_diff_programs <shard> <outdir>
//
// writes the shard's 100 seeded programs as <outdir>/prog<i>.jn, plus
// <outdir>/shard.cpp: a translation unit that includes the modules
// congenc emits from them (<outdir>/prog<i>.hpp, module VmDiff_<shard>_<i>)
// and registers each one's seed, source text and runner with the test.
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <random>
#include <sstream>
#include <string>

#include "vm_diff.hpp"

namespace {

/// Deterministic program generator over the constructs where the VM and
/// emitted code have genuinely separate implementations — suspend/resume
/// through procedure calls, goal-directed failure propagation,
/// alternation/limit/repeated-alternation, `every` loops with
/// break/next, co-expressions (`create`/`<>`/`@`/`^`), pipes (`|>`),
/// the environments they capture (copied locals and parameters, shared
/// `<>` cells, refresh re-copies, a pipe nested in a `create` body),
/// Icon's deferred argument dereferencing, subscripts of a local list,
/// table, record and string (reads in and out of range, stores plain,
/// chained, `op:=` and under `every`, a subscript that fails before its
/// right side runs, a right side that shrinks the list first, `:=:`,
/// null tests), &error conversion, procedures that recurse and
/// suspend at depth, fail from nested marks, or raise three calls deep,
/// and procedures that change a parameter and then return a `<>` or
/// `|<>` co-expression over their parameters, which main activates,
/// refreshes with `^` and activates again after the call has returned.
/// Termination is by construction: ranges have
/// literal bounds, repeated alternation only appears under a limit,
/// `while` loops count a local up to a literal, and generated
/// procedures only call lower-numbered procedures (the call graph is a
/// DAG) or themselves on a parameter clamped to a small range. Known,
/// documented divergences are simply not in the grammar
/// (see docs/INTERNALS.md §13).
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string program() {
    nProcs_ = irand(0, 2);
    std::ostringstream os;
    os << "record r3(a, b, c)\n";
    for (int i = 0; i < nProcs_; ++i) os << proc(i);
    callLimit_ = nProcs_;
    std::ostringstream main;
    main << "procedure main(args)\n  local v, w, c, l, t\n";
    const int stmts = irand(2, 4);
    for (int i = 0; i < stmts; ++i) main << "  " << stmt() << ";\n";
    main << "end\n";
    return os.str() + makers_ + main.str();
  }

 private:
  int irand(int lo, int hi) { return lo + static_cast<int>(rng_() % (hi - lo + 1)); }

  std::string lit() { return std::to_string(irand(-3, 9)); }
  std::string posLit() { return std::to_string(irand(1, 9)); }
  /// A subscript of a four-element list: in range either way, or not.
  std::string idx() { return std::to_string(irand(-5, 5)); }
  /// A subscript of `[int, &null, int, &null]` naming an integer (or
  /// out of range), so `+:=` on it cannot raise.
  std::string intIdx() { return pick({"1", "3", "-2", "-4", "5"}); }
  std::string key() { return pick({"1", "2", "\"a\"", "\"b\""}); }
  /// A subscript of a three-field record: in range either way, or not.
  std::string ridx() { return pick({"1", "2", "3", "-1", "-3", "0", "4"}); }

  /// Single-valued integer-ish expression (may fail, may call procs).
  std::string expr(int depth) {
    if (depth >= 3) return lit();
    switch (irand(0, 7)) {
      case 0:
      case 1:
        return lit();
      case 2:
        return "(" + expr(depth + 1) + " " + pick({"+", "-", "*"}) + " " + expr(depth + 1) + ")";
      case 3:
        return "(" + expr(depth + 1) + " ^ " + std::to_string(irand(0, 3)) + ")";
      case 4:
        return "(-" + expr(depth + 1) + ")";
      case 5:
        return "(" + expr(depth + 1) + " " + pick({"<", "<=", ">", ">=", "=", "~="}) + " " +
               expr(depth + 1) + ")";
      case 6:
        // Only lower-numbered procedures are callable from here, so the
        // generated call graph is a DAG and recursion is impossible.
        if (callLimit_ > 0) {
          return "p" + std::to_string(irand(0, callLimit_ - 1)) + "(" + expr(depth + 1) + ", " +
                 expr(depth + 1) + ")";
        }
        return lit();
      default:
        return "isprime(" + expr(depth + 1) + ")";
    }
  }

  /// Generator expression: a finite sequence of zero or more values.
  std::string seq(int depth) {
    if (depth >= 3) return "(" + lit() + " to " + lit() + ")";
    switch (irand(0, 6)) {
      case 0:
        return "(" + lit() + " to " + lit() + ")";
      case 1:
        return "(" + lit() + " to " + lit() + " by " + pick({"-2", "-1", "1", "2", "3"}) + ")";
      case 2:
        return "(" + seq(depth + 1) + " | " + seq(depth + 1) + ")";
      case 3:
        // Repeated alternation stays finite only under a limit.
        return "((|" + seq(depth + 1) + ") \\ " + posLit() + ")";
      case 4:
        return "(" + seq(depth + 1) + " \\ " + posLit() + ")";
      case 5:
        return "(" + seq(depth + 1) + " & " + seq(depth + 1) + ")";
      default:
        return expr(depth + 1);
    }
  }

  std::string stmt() {
    switch (irand(0, 23)) {
      case 0:
        return "every v := " + seq(0) + " do write(v + " + lit() + ")";
      case 1:
        return "every write(" + seq(0) + ")";
      case 2:
        return "w := " + expr(0) + "; write(w | \"failed\")";
      case 3:
        return "if " + expr(0) + " < " + expr(0) + " then write(\"t\") else write(\"f\")";
      case 4:
        return "v := 0; while v < " + posLit() + " do { write(v); v := v + 1 }";
      case 5:
        // `next` in body position: skip large elements.
        return "every v := " + seq(0) + " do { if v > " + lit() + " then next; write(v) }";
      case 6:
        return "every v := " + seq(0) + " do { if v > " + lit() + " then break; write(v) }";
      case 7:
        // Co-expression activation plus a refreshed copy (`^`). Only
        // `c` ever holds a co-expression, and `c` is only activated,
        // never written raw: the display form of a co-expression embeds
        // its heap address, which no two runs share.
        return "c := create " + seq(0) + "; every 1 to " + posLit() +
               " do write(@c | \"done\"); c := ^c; write(@c | \"no\")";
      case 8:
        // A pipe producer drained through promotion, then &error
        // conversion of a coercion fault into failure.
        return "every write(! (|> " + seq(0) + "))";
      case 9:
        // `create` copies v at creation: the write after it stays outside.
        return "v := " + lit() + "; c := create (v to v + " + posLit() + "); v := " + lit() +
               "; every 1 to " + posLit() + " do write(@c | \"done\"); write(v)";
      case 10:
        // `<>` shares v: each activation's write is seen outside.
        return "v := " + lit() + "; c := <> ((1 to " + posLit() + ") & (v := v * 2 + " + lit() +
               ")); every 1 to " + posLit() + " do write(@c | \"done\"); write(v)";
      case 11:
        // ^c re-copies the environment as it is now, after an outside write.
        return "v := " + lit() + "; w := " + lit() + "; c := create (v | w | (v + w)); write(@c); v := " +
               lit() + "; c := ^c; every 1 to " + posLit() + " do write(@c | \"no\")";
      case 12:
        // A pipe inside a `create` body copies from the body's own copy.
        return "v := " + lit() + "; c := create (! (|> (v to v + " + posLit() + "))); v := " +
               lit() + "; every 1 to " + posLit() + " do write(@c | \"done\")";
      case 13:
        // Deferred dereferencing: both arguments read v after v := e.
        return "v := " + lit() + "; every write(v, v := " + seq(0) + ")";
      case 14:
        // `|<>` body writes only its own copy.
        return "w := " + lit() + "; c := |<> (w +:= " + lit() + "); write(@c); write(@c | \"no\"); write(w)";
      case 15:
        return "&error := 2; every write((" + expr(0) +
               " + \"x\") | \"converted\"); write(&errornumber | \"noerr\")";
      case 16:
        // List reads in and out of range (0 and +-5 fail), then stores.
        return "l := [" + lit() + ", " + lit() + ", " + lit() + ", " + lit() +
               "]; every v := -5 to 5 do write(l[v] | \"out\"); l[" + idx() + "] := " + expr(0) +
               "; l[" + idx() + "] := l[" + idx() + "] := " + lit() + "; every write(!l)";
      case 17:
        // op:=, :=: and null tests as a statement, a condition, an
        // operand and an assignment target.
        return "l := [" + lit() + ", &null, " + lit() + ", &null]; l[" + intIdx() + "] +:= " + lit() +
               "; l[" + idx() + "] :=: l[" + idx() + "]; /l[" + idx() + "]; \\l[" + idx() +
               "]; if /l[" + idx() + "] then write(\"null\") else write(\"set\"); write(\\l[" +
               idx() + "] | \"null\"); write((/l[" + idx() + "] & \"none\") | \"some\"); /l[" +
               idx() + "] := " + lit() + "; every v := 1 to 4 do write(\\l[v] | \"null\")";
      case 18:
        // Subscript stores on a local list: chained, op:=, and under
        // `every` with a generator subscript (some out of range).
        return "l := [" + lit() + ", " + lit() + ", " + lit() + ", " + lit() + "]; l[" + idx() +
               "] := l[" + idx() + "] := " + expr(0) + "; l[" + intIdx() + "] +:= " + lit() +
               "; every l[(1 to " + posLit() + ") | " + idx() + "] +:= " + lit() +
               "; every write(!l)";
      case 19:
        // Table and record subscript stores, chained and op:=.
        return "t := table(0); every t[" + key() + " | " + key() + "] +:= " + lit() + "; t[" + key() +
               "] := t[" + key() + "] := " + expr(0) + "; write(t[1], t[2], t[\"a\"], t[\"b\"]); w := r3(" +
               lit() + ", " + lit() + ", " + lit() + "); w[" + ridx() + "] := " + expr(0) + "; w[" +
               ridx() + "] +:= " + lit() + "; every w[1 to 3] +:= 1; write(w[1], w[2], w[3])";
      case 20:
        // A subscript that fails is checked before its right side runs:
        // the write would show.
        return "l := [" + lit() + ", " + lit() + ", " + lit() + "]; l[" + pick({"9", "-7", "0", "2"}) +
               "] := write(\"rhs\"); w := r3(); w[" + ridx() + "] := write(\"rhs2\"); every write(\\!l)";
      case 21:
        // The right side shrinks the list before the store: the element
        // is resolved when it is written (an error, converted here).
        return "&error := 1; l := [" + lit() + ", " + lit() + ", " + lit() + "]; l[" +
               pick({"3", "-1", "2", "-3"}) + "] := (pull(l) & " + lit() +
               "); write(&errornumber | \"noerr\"); every write(!l)";
      case 22:
        return escapingCoExpr();
      default:
        // A table, a string subscript, and a non-variable assignment
        // converted to failure.
        return "t := table(" + lit() + "); t[" + key() + "] := " + expr(0) + "; t[" + key() +
               "] +:= " + lit() + "; t[" + key() + "] :=: t[" + key() + "]; write(t[1], t[2], t[\"a\"], " +
               "t[\"b\"]); w := \"congen\"; write(w[" + idx() + "] | \"out\"); &error := 1; " +
               "write((1 := 2) | \"converted\"); write(&errornumber | \"noerr\")";
    }
  }

  /// Adds a procedure that changes one of its parameters and returns a
  /// co-expression over them, and returns the main statement that uses
  /// it: the co-expression runs after its call has returned, on that
  /// call's cells (`<>`) or on copies made at creation and at `^`.
  std::string escapingCoExpr() {
    const std::string name = "m" + std::to_string(nMakers_++);
    const std::string param = pick({"a", "b"});
    const std::string op = pick({":=", "+:=", "*:="});
    const std::string value = lit();
    const std::string create = pick({"<>", "|<>"});
    const std::string body = pick({"(a to b)", "(a | b | (a + b))", "((a +:= 1) | b)", "(a * b)"});
    makers_ += "procedure " + name + "(a, b)\n  " + param + " " + op + " " + value + "\n  return " +
               create + " " + body + "\nend\n";
    const std::string a = lit();
    const std::string b = lit();
    const std::string before = posLit();
    const std::string after = posLit();
    return "c := " + name + "(" + a + ", " + b + "); every 1 to " + before +
           " do write(@c | \"done\"); c := ^c; every 1 to " + after + " do write(@c | \"no\")";
  }

  std::string proc(int i) {
    callLimit_ = i;
    std::ostringstream os;
    os << "procedure p" << i << "(a, b)\n  local i\n";
    switch (irand(0, 6)) {
      case 4:
        // Recursion that suspends at every depth; the caller's
        // backtracking resumes the whole chain.
        os << "  if b < 0 | b > 4 then b := 3\n";
        os << "  if b == 0 then return a\n";
        os << "  every i := p" << i << "(a + 1, b - 1) do suspend i + b\n";
        os << "  suspend a | (a * b)\n";
        break;
      case 5:
        // fail from inside nested marks (a loop body, two ifs).
        os << "  every i := (a to a + " << posLit() << ") do {\n";
        os << "    if i > b then { if (i % 2) == 0 then fail; suspend i }\n";
        os << "  }\n  suspend b\n";
        break;
      case 6:
        // An error three calls deep under &error: nothing in the
        // innermost call converts it, so it surfaces at its caller.
        os << "  if b < 0 | b > 3 then b := 3\n";
        os << "  if b == 0 then return @a\n";
        os << "  if b == 3 then &error := 1\n";
        os << "  suspend p" << i << "(a, b - 1) | (a + b)\n";
        break;
      case 0:
        os << "  every i := " << seq(1) << " do suspend i + a\n";
        os << "  if a < b then return a + b\n  fail\n";
        break;
      case 1:
        os << "  suspend " << seq(1) << "\n  suspend b\n";
        break;
      case 2:
        // Pipes and co-expressions over the parameters: each copies a and
        // b at creation, so the later write to a is not seen inside.
        os << "  every i := ! (|> ((a to b) \\ " << posLit() << ")) do suspend i + a\n";
        os << "  i := create (a | b); a := " << lit() << "; suspend @i | a\n";
        break;
      default:
        os << "  if a > b then fail\n  return " << expr(1) << "\n";
        break;
    }
    os << "end\n";
    return os.str();
  }

  std::string pick(std::initializer_list<const char*> xs) {
    return *(xs.begin() + irand(0, static_cast<int>(xs.size()) - 1));
  }

  std::mt19937_64 rng_;
  int nProcs_ = 0;
  int callLimit_ = 0;  // procedures callable from the current body
  int nMakers_ = 0;
  std::string makers_;  // the escapingCoExpr() procedures, defined before main
};

bool writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  using congen::vmdiff::kProgramsPerShard;
  if (argc != 3) {
    std::cerr << "usage: vm_diff_programs <shard> <outdir>\n";
    return 2;
  }
  const int shard = std::stoi(argv[1]);
  const std::filesystem::path dir = argv[2];
  std::filesystem::create_directories(dir);

  std::ostringstream tu;
  tu << "// Generated by vm_diff_programs (differential shard " << shard << "). Do not edit.\n"
     << "#include \"vm_diff.hpp\"\n";
  for (int i = 0; i < kProgramsPerShard; ++i) tu << "#include \"prog" << i << ".hpp\"\n";
  tu << "\nnamespace congen::vmdiff {\nnamespace {\n\nconst EmittedProgram kPrograms[] = {\n";
  for (int i = 0; i < kProgramsPerShard; ++i) {
    const std::uint64_t seed = congen::vmdiff::seedOf(shard, i);
    const std::string source = ProgramGen(seed).program();
    if (!writeFile(dir / ("prog" + std::to_string(i) + ".jn"), source)) {
      std::cerr << "vm_diff_programs: cannot write under " << dir << "\n";
      return 1;
    }
    tu << "    {" << seed << "u, R\"jn(" << source << ")jn\", &runEmitted<VmDiff_" << shard << "_"
       << i << ">},\n";
  }
  tu << "};\n\n[[maybe_unused]] const bool kRegistered = (registerShard(" << shard
     << ", kPrograms), true);\n\n}  // namespace\n}  // namespace congen::vmdiff\n";
  if (!writeFile(dir / "shard.cpp", tu.str())) {
    std::cerr << "vm_diff_programs: cannot write " << dir / "shard.cpp" << "\n";
    return 1;
  }
  return 0;
}
