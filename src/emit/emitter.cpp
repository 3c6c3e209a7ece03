#include "emit/emitter.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "bignum/bigint.hpp"
#include "builtins/builtins.hpp"
#include "transform/normalize.hpp"

namespace congen::emit {

using ast::Kind;
using ast::NodePtr;

namespace {

std::string cppStringLiteral(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

/// Collect local names of a def body: declared (local/var), bound
/// iteration temporaries, and implicitly-local identifiers (Icon:
/// undeclared identifiers in a procedure are local).
struct NameInfo {
  std::set<std::string> locals;      // everything needing a cell (params excluded)
};

void collectDeclared(const NodePtr& n, std::set<std::string>& out, bool tempsOnly = false) {
  if (!n) return;
  if (n->kind == Kind::BoundIter || (n->kind == Kind::VarDecl && !tempsOnly)) out.insert(n->text);
  if (n->kind == Kind::Def) return;  // nested defs own their names
  for (const auto& k : n->kids) collectDeclared(k, out, tempsOnly);
}

void collectReferenced(const NodePtr& n, std::set<std::string>& out) {
  if (!n) return;
  if (n->kind == Kind::Ident || n->kind == Kind::TempRef) out.insert(n->text);
  if (n->kind == Kind::Def) return;
  for (const auto& k : n->kids) collectReferenced(k, out);
}

/// Names assigned (or swapped) to as plain identifiers — used to decide
/// implicit locals: a name that is read but never written in a procedure
/// resolves to a module global instead, which is how embedded code sees
/// host-provided fields (Fig. 3's `lines`).
void collectAssigned(const NodePtr& n, std::set<std::string>& out) {
  if (!n) return;
  if ((n->kind == Kind::Assign || n->kind == Kind::Swap) && !n->kids.empty() &&
      n->kids[0]->kind == Kind::Ident) {
    out.insert(n->kids[0]->text);
  }
  if (n->kind == Kind::Def) return;
  for (const auto& k : n->kids) collectAssigned(k, out);
}

/// The emitter proper: walks (normalized) AST and writes C++ that builds
/// the equivalent kernel iterator trees.
class Emitter {
 public:
  Emitter(const EmitOptions& opts, std::set<std::string> moduleGlobals)
      : opts_(opts), moduleGlobals_(std::move(moduleGlobals)) {}

  // ---- module layout --------------------------------------------------
  std::string module(const NodePtr& program, const std::vector<NodePtr>& exprRegions) {
    std::ostringstream os;
    os << "// Generated by congenc — the Junicon-to-C++ translator. Do not edit.\n";
    os << "// Shape mirrors Fig. 5 of Mills & Jeffery, IPDPS HIPS 2016.\n";
    os << "#pragma once\n\n#include \"congen.hpp\"\n\n";
    // Classify top-level items up front: the constructor registers every
    // record and procedure before it runs any top-level statement.
    std::vector<NodePtr> defs;
    std::vector<NodePtr> records;
    std::vector<NodePtr> topStatements;
    for (const auto& item : program->kids) {
      if (item->kind == Kind::Def) defs.push_back(item);
      else if (item->kind == Kind::RecordDecl) records.push_back(item);
      else topStatements.push_back(item);
    }

    os << "struct " << opts_.moduleName << " {\n";
    os << "  std::unordered_map<std::string, congen::VarPtr> globals;\n\n";
    os << "  congen::VarPtr globalVar(const std::string& name) {\n";
    os << "    auto& v = globals[name];\n";
    os << "    if (!v) v = congen::CellVar::create();\n";
    os << "    return v;\n";
    os << "  }\n";
    os << "  void set(const std::string& name, congen::Value v) {"
          " globalVar(name)->set(std::move(v)); }\n";
    os << "  congen::Value get(const std::string& name) { return globalVar(name)->get(); }\n";
    os << "  congen::GenPtr call(const std::string& name, std::vector<congen::Value> args) {\n";
    os << "    congen::Value f = globalVar(name)->get();\n";
    os << "    if (!f.isProc()) {\n";
    os << "      if (const auto* b = congen::builtins::lookupConst(name)) f = *b;\n";
    os << "      else throw congen::errCallableExpected(name);\n";
    os << "    }\n";
    os << "    return f.proc()->invoke(std::move(args));\n";
    os << "  }\n\n";

    // Procedure factories; record declarations become constructor procs.
    for (const auto& def : defs) os << procFactory(def) << "\n";

    // Expression-region methods.
    for (std::size_t i = 0; i < exprRegions.size(); ++i) {
      os << exprMethod("expr_" + std::to_string(i), exprRegions[i]) << "\n";
    }

    // Constructor: register record constructors and procedures, then run
    // top-level statements.
    os << "  " << opts_.moduleName << "() {\n";
    for (const auto& rec : records) {
      os << "    {\n      auto type = congen::RecordType::create(" << cppStringLiteral(rec->text)
         << ", {";
      for (std::size_t i = 0; i < rec->kids.size(); ++i) {
        if (i) os << ", ";
        os << cppStringLiteral(rec->kids[i]->text);
      }
      os << "});\n";
      os << "      globalVar(" << cppStringLiteral(rec->text)
         << ")->set(congen::Value::proc(congen::ProcImpl::create(" << cppStringLiteral(rec->text)
         << ",\n        [type](std::vector<congen::Value> args) -> congen::GenPtr {\n"
            "          return congen::ConstGen::create(congen::Value::record(\n"
            "              congen::RecordImpl::create(type, std::move(args))));\n"
            "        })));\n    }\n";
    }
    for (const auto& def : defs) {
      os << "    globalVar(" << cppStringLiteral(def->text)
         << ")->set(congen::Value::proc(make_" << def->text << "()));\n";
    }
    for (const auto& stmt : topStatements) {
      // A statement's bound-iteration temporaries get cells of their own
      // for its run; every other name stays a module global.
      std::set<std::string> temps;
      collectDeclared(stmt, temps, /*tempsOnly=*/true);
      pushScope();
      const int depth = temps.empty() ? 3 : 4;
      const std::string pad(temps.empty() ? 4 : 6, ' ');
      if (!temps.empty()) os << "    {\n";
      for (const auto& t : temps) {
        os << pad << "auto " << t << "_r = congen::CellVar::create();\n";
        bindLocal(t, t + "_r");
      }
      os << pad << "(" << statement(stmt, depth) << ")->next();\n";
      if (!temps.empty()) os << "    }\n";
      popScope();
    }
    os << "  }\n";
    os << "};\n";
    return os.str();
  }

 private:
  // ---- procedures ------------------------------------------------------
  std::string procFactory(const NodePtr& def) {
    const NodePtr& params = def->kids[0];
    const NodePtr& body = def->kids[1];
    const std::string& name = def->text;

    std::set<std::string> declared;
    collectDeclared(body, declared);
    std::set<std::string> referenced;
    collectReferenced(body, referenced);

    std::vector<std::string> paramNames;
    for (const auto& p : params->kids) paramNames.push_back(p->text);

    // Implicit locals: referenced AND written, not declared, not a
    // parameter, not a known global/builtin/host name. Names that are
    // only read fall through to module globals so host-provided data is
    // visible (the mixed-language contract).
    std::set<std::string> assigned;
    collectAssigned(body, assigned);
    std::set<std::string> locals = declared;
    for (const auto& r : referenced) {
      if (std::find(paramNames.begin(), paramNames.end(), r) != paramNames.end()) continue;
      if (declared.contains(r) || moduleGlobals_.contains(r)) continue;
      if (r == "this") continue;
      if (builtins::lookup(r)) continue;
      if (!assigned.contains(r)) continue;
      locals.insert(r);
    }

    pushScope();
    for (const auto& p : paramNames) bindLocal(p, p + "_r");
    for (const auto& l : locals) bindLocal(l, l + "_r");

    std::ostringstream os;
    os << "  congen::ProcPtr make_" << name << "() {\n";
    os << "    return congen::ProcImpl::create(" << cppStringLiteral(name)
       << ", [this](std::vector<congen::Value> args) -> congen::GenPtr {\n";
    os << "      // Each call builds its own body; a restart builds it again\n";
    os << "      // from the same arguments.\n";
    os << "      return congen::BodyRootGen::create(std::move(args), [this]("
          "[[maybe_unused]] const std::vector<congen::Value>& params) -> congen::GenPtr {\n";
    os << "        // Reified parameters, bound from the arguments\n";
    for (std::size_t i = 0; i < paramNames.size(); ++i) {
      os << "        [[maybe_unused]] auto " << paramNames[i]
         << "_r = congen::CellVar::create(params.size() > " << i << " ? params[" << i
         << "] : congen::Value::null());\n";
    }
    if (!locals.empty()) os << "        // Locals and temporaries\n";
    for (const auto& l : locals) {
      os << "        [[maybe_unused]] auto " << l << "_r = congen::CellVar::create();\n";
    }
    os << "        // Method body\n";
    os << "        return " << statement(body, 4) << ";\n";
    os << "      });\n";
    os << "    });\n";
    os << "  }\n";
    popScope();
    return os.str();
  }

  std::string exprMethod(const std::string& methodName, const NodePtr& exprAst) {
    std::set<std::string> declared;
    collectDeclared(exprAst, declared);
    pushScope();
    for (const auto& d : declared) bindLocal(d, d + "_r");

    std::ostringstream os;
    os << "  congen::GenPtr " << methodName << "() {\n";
    for (const auto& d : declared) {
      os << "    [[maybe_unused]] auto " << d << "_r = congen::CellVar::create();\n";
    }
    os << "    return " << expr(exprAst, 2) << ";\n";
    os << "  }\n";
    popScope();
    return os.str();
  }

  // ---- scopes ------------------------------------------------------------
  void pushScope() { scopes_.emplace_back(); }
  void popScope() { scopes_.pop_back(); }
  void bindLocal(const std::string& name, std::string cppExpr) {
    scopes_.back()[name] = std::move(cppExpr);
  }
  [[nodiscard]] const std::string* findLocal(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  // ---- expressions ---------------------------------------------------------
  std::string ind(int depth) const { return "\n" + std::string(static_cast<std::size_t>(depth) * 2, ' '); }

  std::string identifier(const std::string& name, int depth) {
    (void)depth;
    if (const auto* local = findLocal(name)) {
      return "congen::VarGen::create(" + *local + ")";
    }
    if (moduleGlobals_.contains(name) || name == "this") {
      return "congen::VarGen::create(globalVar(" + cppStringLiteral(name) + "))";
    }
    if (builtins::lookup(name)) {
      // lookupConst returns the interned proc Value: copying it is a
      // refcount bump, resolved once per body construction.
      return "congen::ConstGen::create(*congen::builtins::lookupConst(" +
             cppStringLiteral(name) + "))";
    }
    // Fall back to a module global (covers host-provided names).
    return "congen::VarGen::create(globalVar(" + cppStringLiteral(name) + "))";
  }

  std::string genList(const std::vector<NodePtr>& nodes, std::size_t from, int depth) {
    std::string out = "std::vector<congen::GenPtr>{";
    for (std::size_t i = from; i < nodes.size(); ++i) {
      if (i > from) out += ", ";
      out += ind(depth + 1) + expr(nodes[i], depth + 1);
    }
    out += "}";
    return out;
  }

  std::string intLiteral(const std::string& text) {
    std::string digits = text;
    unsigned radix = 10;
    if (const auto r = text.find_first_of("rR"); r != std::string::npos) {
      radix = static_cast<unsigned>(std::stoul(text.substr(0, r)));
      digits = text.substr(r + 1);
    }
    const BigInt v = BigInt::fromString(digits, radix);
    if (const auto small = v.toInt64()) {
      return "congen::ConstGen::create(congen::Value::integer(INT64_C(" + v.toString() + ")))";
    }
    return "congen::ConstGen::create(congen::Value::integer(congen::BigInt::fromString(" +
           cppStringLiteral(digits) + ", " + std::to_string(radix) + ")))";
  }

  /// Emit a co-expression/pipe body factory. With shadow=true every
  /// referenced local is re-bound to a fresh `name_sN_r` cell holding a
  /// copy (Fig. 5's chunk_s_r / f_s_r); with shadow=false (`<>`) the
  /// outer cells are captured and shared. Temporaries bound *inside* the
  /// body (by flattening) are created per factory invocation so each
  /// refresh/pipe instance iterates independently.
  std::string bodyFactory(const NodePtr& body, int depth, bool shadow) {
    const int id = ++factorySeq_;
    const std::string suffix = "_s" + std::to_string(id) + "_r";
    const std::string tmpSuffix = "_t" + std::to_string(id) + "_r";

    auto referenced = transform::freeIdents(body);
    std::vector<std::pair<std::string, std::string>> captured;  // name → outer cpp expr
    for (const auto& name : referenced) {
      if (const auto* local = findLocal(name)) captured.emplace_back(name, *local);
    }
    std::set<std::string> innerBound;
    collectDeclared(body, innerBound);

    std::string out = "[this";
    for (const auto& [name, cpp] : captured) out += ", " + cpp;
    out += "]() -> congen::GenPtr {";
    pushScope();
    for (const auto& [name, cpp] : captured) {
      if (shadow) {
        out += ind(depth + 1) + "// shadowed copy of the referenced local '" + name + "'";
        out += ind(depth + 1) + "auto " + name + suffix + " = congen::CellVar::create(" + cpp +
               "->get());";
        bindLocal(name, name + suffix);
      }
      // Without shadowing the captured cell itself is shared; the outer
      // binding already maps to the captured name.
    }
    for (const auto& name : innerBound) {
      out += ind(depth + 1) + "auto " + name + tmpSuffix + " = congen::CellVar::create();";
      bindLocal(name, name + tmpSuffix);
    }
    out += ind(depth + 1) + "return " + expr(body, depth + 1) + ";";
    popScope();
    out += ind(depth) + "}";
    return out;
  }

  std::string unary(const NodePtr& n, int depth) {
    const std::string& op = n->text;
    const NodePtr& operand = n->kids[0];
    if (op == "!") return "congen::PromoteGen::create(" + expr(operand, depth) + ")";
    if (op == "@") return "congen::ActivateGen::create(" + expr(operand, depth) + ")";
    if (op == "^") return "congen::RefreshGen::create(" + expr(operand, depth) + ")";
    if (op == "|") return "congen::RepeatAltGen::create(" + expr(operand, depth) + ")";
    if (op == "<>") {
      // First-class generator: no shadowing — the factory shares cells.
      return "congen::CoExprCreateGen::create(" + ind(depth + 1) +
             bodyFactory(operand, depth + 1, /*shadow=*/false) + ")";
    }
    if (op == "|<>") {
      return "congen::CoExprCreateGen::create(" + ind(depth + 1) +
             bodyFactory(operand, depth + 1, /*shadow=*/true) + ")";
    }
    if (op == "|>") {
      return "congen::makePipeCreateGen(" + ind(depth + 1) +
             bodyFactory(operand, depth + 1, /*shadow=*/true) + ")";
    }
    return "congen::makeUnaryOpGen(" + cppStringLiteral(op) + ", " + expr(operand, depth) + ")";
  }

  std::string expr(const NodePtr& n, int depth) {
    switch (n->kind) {
      case Kind::IntLit: return intLiteral(n->text);
      case Kind::RealLit:
        return "congen::ConstGen::create(congen::Value::real(" + n->text + "))";
      case Kind::StrLit:
        return "congen::ConstGen::create(congen::atomString(" + cppStringLiteral(n->text) + "))";
      case Kind::NullLit: return "congen::NullGen::create()";
      case Kind::FailLit: return "congen::FailGen::create()";
      case Kind::Ident:
      case Kind::TempRef: return identifier(n->text, depth);
      case Kind::KeywordVar:
        if (n->text == "subject") return "congen::makeSubjectVarGen()";
        if (n->text == "error") return "congen::makeErrorVarGen()";
        if (n->text == "errornumber") return "congen::makeErrorNumberVarGen()";
        if (n->text == "errorvalue") return "congen::makeErrorValueVarGen()";
        return "congen::makePosVarGen()";
      case Kind::ListLit: {
        std::string out = "congen::makeListLitGen(";
        out += genList(n->kids, 0, depth) + ")";
        return out;
      }
      case Kind::BoundIter: {
        const auto* local = findLocal(n->text);
        if (!local) throw EmitError("bound iterator over unknown temp " + n->text);
        return "congen::InGen::create(" + *local + "," + ind(depth + 1) +
               expr(n->kids[0], depth + 1) + ")";
      }
      case Kind::Binary: {
        const std::string lhs = expr(n->kids[0], depth + 1);
        const std::string rhs = expr(n->kids[1], depth + 1);
        if (n->text == "&") {
          return "congen::ProductGen::create(" + ind(depth + 1) + lhs + "," + ind(depth + 1) +
                 rhs + ")";
        }
        if (n->text == "|") {
          return "congen::AltGen::create(" + ind(depth + 1) + lhs + "," + ind(depth + 1) + rhs +
                 ")";
        }
        if (n->text == "?") {
          return "congen::ScanGen::create(" + ind(depth + 1) + lhs + "," + ind(depth + 1) + rhs +
                 ")";
        }
        return "congen::makeBinaryOpGen(" + cppStringLiteral(n->text) + "," + ind(depth + 1) +
               lhs + "," + ind(depth + 1) + rhs + ")";
      }
      case Kind::Unary: return unary(n, depth);
      case Kind::Assign: {
        const std::string lhs = expr(n->kids[0], depth + 1);
        const std::string rhs = expr(n->kids[1], depth + 1);
        if (n->text == ":=") {
          return "congen::makeAssignGen(" + ind(depth + 1) + lhs + "," + ind(depth + 1) + rhs +
                 ")";
        }
        if (n->text == "<-") {
          return "congen::makeRevAssignGen(" + ind(depth + 1) + lhs + "," + ind(depth + 1) + rhs +
                 ")";
        }
        const std::string op = n->text.substr(0, n->text.size() - 2);
        return "congen::makeAugAssignGen(" + cppStringLiteral(op) + "," + ind(depth + 1) + lhs +
               "," + ind(depth + 1) + rhs + ")";
      }
      case Kind::Swap:
        return std::string(n->text == "<->" ? "congen::makeRevSwapGen(" : "congen::makeSwapGen(") +
               expr(n->kids[0], depth) + ", " + expr(n->kids[1], depth) + ")";
      case Kind::ToBy: {
        std::string out = "congen::makeToByGen(" + ind(depth + 1) + expr(n->kids[0], depth + 1) +
                          "," + ind(depth + 1) + expr(n->kids[1], depth + 1) + "," + ind(depth + 1);
        out += n->kids.size() > 2 ? expr(n->kids[2], depth + 1) : std::string("nullptr");
        return out + ")";
      }
      case Kind::Limit:
        return "congen::LimitGen::create(" + expr(n->kids[0], depth) + ", " +
               expr(n->kids[1], depth) + ")";
      case Kind::Index:
        return "congen::makeIndexGen(" + expr(n->kids[0], depth) + ", " + expr(n->kids[1], depth) +
               ")";
      case Kind::Slice:
        return "congen::makeSliceGen(" + expr(n->kids[0], depth) + ", " +
               expr(n->kids[1], depth) + ", " + expr(n->kids[2], depth) + ")";
      case Kind::Field:
        return "congen::makeFieldGen(" + expr(n->kids[0], depth) + ", " +
               cppStringLiteral(n->text) + ")";
      case Kind::Invoke:
        return "congen::makeInvokeGen(" + ind(depth + 1) + expr(n->kids[0], depth + 1) + "," +
               ind(depth + 1) + genList(n->kids, 1, depth + 1) + ")";
      case Kind::NativeInvoke: {
        const NodePtr& recv = n->kids[0];
        const bool isThis = recv->kind == Kind::Ident && recv->text == "this";
        std::string args = "std::vector<congen::GenPtr>{";
        bool first = true;
        if (!isThis) {
          args += ind(depth + 2) + expr(recv, depth + 2);
          first = false;
        }
        for (std::size_t i = 1; i < n->kids.size(); ++i) {
          if (!first) args += ", ";
          args += ind(depth + 2) + expr(n->kids[i], depth + 2);
          first = false;
        }
        args += "}";
        return "congen::makeInvokeGen(" + ind(depth + 1) + identifier(n->text, depth + 1) + "," +
               ind(depth + 1) + args + ")";
      }
      case Kind::ExprSeq: {
        // Children are statements (brace expressions allow declarations
        // and control constructs); the last term delegates.
        std::string out = "congen::SeqGen::create(std::vector<congen::GenPtr>{";
        for (std::size_t i = 0; i < n->kids.size(); ++i) {
          if (i) out += ",";
          out += ind(depth + 1) + statement(n->kids[i], depth + 1);
        }
        return out + "}, congen::SeqGen::Mode::Expression)";
      }
      case Kind::Not: return "congen::NotGen::create(" + expr(n->kids[0], depth) + ")";
      case Kind::IfStmt: return ifGen(n, depth);
      case Kind::Block:
      case Kind::EveryStmt:
      case Kind::WhileStmt:
      case Kind::UntilStmt:
      case Kind::RepeatStmt:
      case Kind::CaseStmt:
      case Kind::SuspendStmt:
        return statement(n, depth);
      default:
        throw EmitError("unsupported node in expression position: " + ast::dump(n));
    }
  }

  std::string ifGen(const NodePtr& n, int depth) {
    std::string out = "congen::IfGen::create(" + ind(depth + 1) + expr(n->kids[0], depth + 1) +
                      "," + ind(depth + 1) + statement(n->kids[1], depth + 1);
    if (n->kids.size() > 2) out += "," + ind(depth + 1) + statement(n->kids[2], depth + 1);
    return out + ")";
  }

  // ---- statements -------------------------------------------------------
  std::string statement(const NodePtr& n, int depth) {
    switch (n->kind) {
      case Kind::Block: {
        if (n->kids.empty()) return "congen::FailGen::create()";
        std::string out = "congen::SeqGen::create(std::vector<congen::GenPtr>{";
        for (std::size_t i = 0; i < n->kids.size(); ++i) {
          if (i) out += ",";
          out += ind(depth + 1) + statement(n->kids[i], depth + 1);
        }
        out += "}, congen::SeqGen::Mode::Body)";
        return out;
      }
      case Kind::ExprStmt: return expr(n->kids[0], depth);
      case Kind::DeclList: {
        std::vector<std::string> inits;
        for (const auto& decl : n->kids) {
          if (decl->kids.empty()) continue;
          const auto* local = findLocal(decl->text);
          if (!local) throw EmitError("declaration of unknown local " + decl->text);
          inits.push_back("congen::makeAssignGen(congen::VarGen::create(" + *local + "), " +
                          expr(decl->kids[0], depth + 1) + ")");
        }
        if (inits.empty()) return "congen::NullGen::create()";
        if (inits.size() == 1) return inits[0];
        std::string out = "congen::SeqGen::create(std::vector<congen::GenPtr>{";
        for (std::size_t i = 0; i < inits.size(); ++i) {
          if (i) out += ", ";
          out += ind(depth + 1) + inits[i];
        }
        return out + "}, congen::SeqGen::Mode::Body)";
      }
      case Kind::EveryStmt:
      case Kind::WhileStmt:
      case Kind::UntilStmt: {
        const char* maker = n->kind == Kind::EveryStmt ? "every"
                            : n->kind == Kind::WhileStmt ? "whileDo"
                                                         : "untilDo";
        std::string out = std::string("congen::LoopGen::") + maker + "(" + ind(depth + 1) +
                          expr(n->kids[0], depth + 1);
        if (n->kids.size() > 1) out += "," + ind(depth + 1) + statement(n->kids[1], depth + 1);
        return out + ")";
      }
      case Kind::RepeatStmt:
        return "congen::LoopGen::repeat(" + statement(n->kids[0], depth) + ")";
      case Kind::IfStmt: return ifGen(n, depth);
      case Kind::SuspendStmt:
        return "congen::SuspendGen::create(" + ind(depth + 1) +
               (n->kids.empty() ? std::string("congen::NullGen::create()")
                                : expr(n->kids[0], depth + 1)) +
               ")";
      case Kind::ReturnStmt:
        return "congen::ReturnGen::create(" +
               (n->kids.empty() ? std::string("congen::NullGen::create()")
                                : expr(n->kids[0], depth + 1)) +
               ")";
      case Kind::FailStmt: return "congen::FailBodyGen::create()";
      case Kind::BreakStmt: return "congen::BreakGen::create()";
      case Kind::NextStmt: return "congen::NextGen::create()";
      case Kind::CaseStmt: {
        std::string out = "congen::CaseGen::create(" + ind(depth + 1) +
                          expr(n->kids[0], depth + 1) + "," + ind(depth + 1) +
                          "std::vector<congen::CaseGen::Branch>{";
        for (std::size_t i = 1; i < n->kids.size(); ++i) {
          const NodePtr& b = n->kids[i];
          if (i > 1) out += ",";
          if (b->text == "default") {
            out += ind(depth + 2) + "congen::CaseGen::Branch{nullptr, " +
                   statement(b->kids[0], depth + 2) + "}";
          } else {
            out += ind(depth + 2) + "congen::CaseGen::Branch{" + expr(b->kids[0], depth + 2) +
                   ", " + statement(b->kids[1], depth + 2) + "}";
          }
        }
        return out + "})";
      }
      case Kind::GlobalDecl: {
        std::string out = "congen::SeqGen::create(std::vector<congen::GenPtr>{";
        for (std::size_t i = 0; i < n->kids.size(); ++i) {
          if (i) out += ", ";
          out += "congen::VarGen::create(globalVar(" + cppStringLiteral(n->kids[i]->text) + "))";
        }
        return out + "}, congen::SeqGen::Mode::Body)";
      }
      case Kind::Def: throw EmitError("nested procedure definitions are not supported");
      default: return expr(n, depth);
    }
  }

  const EmitOptions& opts_;
  std::set<std::string> moduleGlobals_;
  std::vector<std::map<std::string, std::string>> scopes_;
  int factorySeq_ = 0;
};

std::set<std::string> topLevelGlobals(const NodePtr& program, const EmitOptions& opts) {
  std::set<std::string> globals(opts.hostGlobals.begin(), opts.hostGlobals.end());
  for (const auto& item : program->kids) {
    if (item->kind == Kind::Def || item->kind == Kind::RecordDecl) globals.insert(item->text);
    // Top-level assignments and declarations define module globals.
    if (item->kind == Kind::DeclList || item->kind == Kind::GlobalDecl) {
      for (const auto& d : item->kids) globals.insert(d->text);
    }
    if (item->kind == Kind::ExprStmt && !item->kids.empty() &&
        item->kids[0]->kind == Kind::Assign && item->kids[0]->kids[0]->kind == Kind::Ident) {
      globals.insert(item->kids[0]->kids[0]->text);
    }
  }
  return globals;
}

}  // namespace

std::string emitModule(const NodePtr& program, const EmitOptions& opts) {
  return emitModuleWithExprs(program, {}, opts);
}

std::string emitModuleWithExprs(const NodePtr& program, const std::vector<NodePtr>& exprRegions,
                                const EmitOptions& opts) {
  // Emission always normalizes (Section V.A flattening): the Fig. 5
  // output shape depends on it.
  NodePtr prog = transform::normalizeProgram(program);
  std::vector<NodePtr> exprs;
  exprs.reserve(exprRegions.size());
  for (const auto& e : exprRegions) {
    transform::TempNames names;
    exprs.push_back(transform::normalize(e, names));
  }
  Emitter emitter(opts, topLevelGlobals(prog, opts));
  return emitter.module(prog, exprs);
}

}  // namespace congen::emit
