#include "frontend/parser.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace congen::frontend {

namespace {

using ast::Kind;
using ast::NodePtr;

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  NodePtr program() {
    auto prog = ast::make(Kind::Program);
    while (!at(TokKind::End)) prog->kids.push_back(definitionOrStatement());
    return prog;
  }

  NodePtr expressionOnly() {
    auto e = expression();
    if (!at(TokKind::End)) err("trailing input after expression");
    return e;
  }

 private:
  // -- token plumbing ---------------------------------------------------
  const Token& cur() const { return toks_[pos_]; }
  const Token& ahead(std::size_t n = 1) const {
    return toks_[std::min(pos_ + n, toks_.size() - 1)];
  }
  bool at(TokKind k) const { return cur().kind == k; }
  bool atOp(std::string_view s) const { return cur().isOp(s); }
  bool atKw(std::string_view s) const { return cur().isKeyword(s); }
  Token take() { return toks_[pos_++]; }
  void expectOp(std::string_view s) {
    if (!atOp(s)) err(std::string("expected '") + std::string(s) + "', found '" + cur().text + "'");
    ++pos_;
  }
  void expectKw(std::string_view s) {
    if (!atKw(s)) err(std::string("expected '") + std::string(s) + "', found '" + cur().text + "'");
    ++pos_;
  }
  [[noreturn]] void err(const std::string& message) const {
    throw SyntaxError(message, cur().line, cur().col);
  }
  NodePtr stamp(NodePtr n, const Token& t) const {
    n->line = t.line;
    n->col = t.col;
    return n;
  }
  void skipSemis() {
    while (atOp(";")) ++pos_;
  }

  // -- nesting budget -------------------------------------------------------
  // The parser recurses on the source, and normalize, resolve, compile,
  // emit and the tree's own destructor recurse on the AST, so nesting
  // must stop well before a default 8 MB stack runs out. One level is
  // charged per recursive descent (expression, statement, prefix
  // operator, the right operand of `^`, assignment and `to`/`by`) and per
  // operand a left-associative loop folds into its chain: the fold pushes
  // the chain built so far one level deeper, with no parser recursion at
  // all. Past kMaxNesting the parse stops with a SyntaxError at the
  // offending token.
  static constexpr std::size_t kMaxNesting = 1000;

  void charge(std::size_t level) const {
    if (level > kMaxNesting) err("nesting too deep");
  }

  /// One level of recursive descent, held for the guard's scope. It
  /// starts a subtree: reach_ tracks the deepest level the subtree has
  /// reached, and folds back into the enclosing one on exit.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p), outer_(p.reach_) {
      p.charge(++p.depth_);
      p.reach_ = p.depth_;
    }
    ~Nest() {
      --p_.depth_;
      p_.reach_ = std::max(outer_, p_.reach_);
    }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
    std::size_t outer_;
  };

  /// One fold of a left-associative loop, held while the new node's other
  /// operands parse. Everything parsed so far in the current subtree is
  /// the chain's left operand, so it sinks one level; the other operands
  /// sit one level below the chain's root.
  class Fold {
   public:
    explicit Fold(Parser& p) : p_(p), sunk_(p.reach_ + 1) {
      p.charge(sunk_);
      p.reach_ = ++p.depth_;
    }
    ~Fold() {
      --p_.depth_;
      p_.reach_ = std::max(p_.reach_, sunk_);
    }
    Fold(const Fold&) = delete;
    Fold& operator=(const Fold&) = delete;

   private:
    Parser& p_;
    std::size_t sunk_;
  };

  /// Parses one construct a nesting level down.
  NodePtr nested(NodePtr (Parser::*parse)()) {
    const Nest nest(*this);
    return (this->*parse)();
  }

  // -- declarations -------------------------------------------------------
  NodePtr definitionOrStatement() {
    if (atKw("def") || atKw("procedure") || atKw("method")) return definition();
    if (atKw("record")) return recordDeclaration();
    if (atKw("global")) return globalDeclaration();
    return statement();
  }

  NodePtr recordDeclaration() {
    const Token intro = take();  // record
    if (!at(TokKind::Ident)) err("expected record type name");
    const Token name = take();
    auto decl = ast::make(Kind::RecordDecl, name.text);
    expectOp("(");
    while (!atOp(")")) {
      if (!at(TokKind::Ident)) err("expected field name");
      const Token field = take();
      decl->kids.push_back(stamp(ast::make(Kind::Ident, field.text), field));
      if (atOp(",")) ++pos_;
    }
    expectOp(")");
    skipSemis();
    return stamp(std::move(decl), intro);
  }

  NodePtr globalDeclaration() {
    const Token intro = take();  // global
    auto decl = ast::make(Kind::GlobalDecl);
    while (at(TokKind::Ident)) {
      const Token name = take();
      decl->kids.push_back(stamp(ast::make(Kind::Ident, name.text), name));
      if (atOp(",")) ++pos_;
    }
    skipSemis();
    return stamp(std::move(decl), intro);
  }

  NodePtr definition() {
    const Token intro = take();  // def | procedure | method
    if (!at(TokKind::Ident)) err("expected procedure name");
    const Token name = take();
    auto params = ast::make(Kind::ParamList);
    expectOp("(");
    while (!atOp(")")) {
      if (!at(TokKind::Ident)) err("expected parameter name");
      const Token param = take();
      params->kids.push_back(stamp(ast::make(Kind::Ident, param.text), param));
      if (atOp(",")) ++pos_;
    }
    expectOp(")");

    NodePtr body;
    if (atOp("{")) {
      body = block();
    } else {
      // procedure f(a); stmts... end
      skipSemis();
      body = ast::make(Kind::Block);
      while (!atKw("end")) {
        if (at(TokKind::End)) err("unterminated procedure " + name.text);
        body->kids.push_back(statement());
      }
      expectKw("end");
    }
    skipSemis();
    auto def = ast::make(Kind::Def, name.text, {std::move(params), std::move(body)});
    return stamp(std::move(def), intro);
  }

  // -- statements -----------------------------------------------------------
  NodePtr block() {
    const Token open = cur();
    expectOp("{");
    auto b = ast::make(Kind::Block);
    while (!atOp("}")) {
      if (at(TokKind::End)) err("unterminated block");
      b->kids.push_back(statement());
    }
    expectOp("}");
    skipSemis();
    return stamp(std::move(b), open);
  }

  /// A statement or (for loop bodies / branches) a block.
  NodePtr statement() {
    skipSemis();
    const Nest nest(*this);
    const Token& t = cur();

    if (atOp("{")) return block();

    if (atKw("local") || atKw("var")) {
      ++pos_;
      auto decls = ast::make(Kind::DeclList);
      while (true) {
        if (!at(TokKind::Ident)) err("expected variable name in declaration");
        const Token name = take();
        auto decl = ast::make(Kind::VarDecl, name.text);
        if (atOp(":=") || atOp("=")) {
          ++pos_;
          decl->kids.push_back(expression());
        }
        decls->kids.push_back(stamp(std::move(decl), name));
        if (atOp(",")) {
          ++pos_;
          continue;
        }
        break;
      }
      skipSemis();
      return stamp(std::move(decls), t);
    }

    if (atKw("every") || atKw("while") || atKw("until")) {
      const Token kw = take();
      auto control = expression();
      NodePtr body;
      if (atKw("do")) {
        ++pos_;
        body = statement();
      }
      skipSemis();
      const Kind k = kw.isKeyword("every") ? Kind::EveryStmt
                     : kw.isKeyword("while") ? Kind::WhileStmt
                                             : Kind::UntilStmt;
      auto n = ast::make(k);
      n->kids.push_back(std::move(control));
      if (body) n->kids.push_back(std::move(body));
      return stamp(std::move(n), kw);
    }

    if (atKw("repeat")) {
      const Token kw = take();
      auto body = statement();
      return stamp(ast::make(Kind::RepeatStmt, "", {std::move(body)}), kw);
    }

    if (atKw("if")) {
      const Token kw = take();
      auto cond = expression();
      expectKw("then");
      auto thenS = statement();
      auto n = ast::make(Kind::IfStmt, "", {std::move(cond), std::move(thenS)});
      if (atKw("else")) {
        ++pos_;
        n->kids.push_back(statement());
      }
      skipSemis();
      return stamp(std::move(n), kw);
    }

    if (atKw("suspend") || atKw("return")) {
      const Token kw = take();
      auto n = ast::make(kw.isKeyword("suspend") ? Kind::SuspendStmt : Kind::ReturnStmt);
      if (!atOp(";") && !atOp("}") && !at(TokKind::End) && !atKw("end")) {
        n->kids.push_back(expression());
      }
      skipSemis();
      return stamp(std::move(n), kw);
    }

    if (atKw("case")) {
      // case E of { v1: S; v2 | v3: S; default: S }
      const Token kw = take();
      auto control = expression();
      expectKw("of");
      expectOp("{");
      auto n = ast::make(Kind::CaseStmt, "", {std::move(control)});
      while (!atOp("}")) {
        if (at(TokKind::End)) err("unterminated case");
        skipSemis();
        if (atOp("}")) break;
        auto branch = ast::make(Kind::CaseBranch);
        if (atKw("default")) {
          ++pos_;
          branch->text = "default";
        } else {
          branch->kids.push_back(expression());
        }
        expectOp(":");
        branch->kids.push_back(statement());
        n->kids.push_back(std::move(branch));
      }
      expectOp("}");
      skipSemis();
      return stamp(std::move(n), kw);
    }

    if (atKw("fail") || atKw("break") || atKw("next")) {
      const Token kw = take();
      skipSemis();
      const Kind k = kw.isKeyword("fail") ? Kind::FailStmt
                     : kw.isKeyword("break") ? Kind::BreakStmt
                                             : Kind::NextStmt;
      return stamp(ast::make(k), kw);
    }

    // expression statement
    auto e = expression();
    skipSemis();
    return stamp(ast::make(Kind::ExprStmt, "", {std::move(e)}), t);
  }

  // -- expressions -----------------------------------------------------------
  NodePtr expression() { return nested(&Parser::conjunction); }

  NodePtr conjunction() {
    auto lhs = assignment();
    while (atOp("&")) {
      const Token op = take();
      const Fold fold(*this);
      auto rhs = assignment();
      lhs = stamp(ast::make(Kind::Binary, "&", {std::move(lhs), std::move(rhs)}), op);
    }
    return lhs;
  }

  NodePtr assignment() {
    auto lhs = scan();
    static constexpr std::array<std::string_view, 11> kAssignOps = {
        ":=", "=", "+:=", "-:=", "*:=", "/:=", "%:=", "^:=", "||:=", "<:=", ">:="};
    for (const auto op : kAssignOps) {
      if (atOp(op)) {
        const Token opTok = take();
        auto rhs = nested(&Parser::assignment);  // right-associative
        const std::string spelled = op == "=" ? ":=" : std::string(op);
        return stamp(ast::make(Kind::Assign, spelled, {std::move(lhs), std::move(rhs)}), opTok);
      }
    }
    if (atOp(":=:")) {
      const Token opTok = take();
      auto rhs = nested(&Parser::assignment);
      return stamp(ast::make(Kind::Swap, ":=:", {std::move(lhs), std::move(rhs)}), opTok);
    }
    if (atOp("<-")) {  // reversible assignment (undone on backtracking)
      const Token opTok = take();
      auto rhs = nested(&Parser::assignment);
      return stamp(ast::make(Kind::Assign, "<-", {std::move(lhs), std::move(rhs)}), opTok);
    }
    if (atOp("<->")) {  // reversible swap
      const Token opTok = take();
      auto rhs = nested(&Parser::assignment);
      return stamp(ast::make(Kind::Swap, "<->", {std::move(lhs), std::move(rhs)}), opTok);
    }
    return lhs;
  }

  /// String scanning e1 ? e2 (left-associative, below assignment). The
  /// body may be a control construct (Icon: while/every/suspend are
  /// expressions), so statement keywords are accepted on the right.
  NodePtr scan() {
    auto lhs = toBy();
    while (atOp("?")) {
      const Token op = take();
      const Fold fold(*this);
      NodePtr rhs;
      if (atKw("while") || atKw("until") || atKw("every") || atKw("repeat") || atKw("case") ||
          atKw("suspend")) {
        rhs = statement();
      } else {
        rhs = toBy();
      }
      lhs = stamp(ast::make(Kind::Binary, "?", {std::move(lhs), std::move(rhs)}), op);
    }
    return lhs;
  }

  NodePtr toBy() {
    auto from = alternation();
    if (!atKw("to")) return from;
    const Token toTok = take();
    auto limit = nested(&Parser::alternation);
    auto n = ast::make(Kind::ToBy, "", {std::move(from), std::move(limit)});
    if (atKw("by")) {
      ++pos_;
      n->kids.push_back(nested(&Parser::alternation));
    }
    return stamp(std::move(n), toTok);
  }

  NodePtr alternation() {
    auto lhs = comparison();
    while (atOp("|")) {
      const Token op = take();
      const Fold fold(*this);
      auto rhs = comparison();
      lhs = stamp(ast::make(Kind::Binary, "|", {std::move(lhs), std::move(rhs)}), op);
    }
    return lhs;
  }

  NodePtr comparison() {
    auto lhs = concatenation();
    static constexpr std::array<std::string_view, 10> kCmp = {
        "<", "<=", ">", ">=", "~=", "==", "~==", "!=", "===", "~==="};
    while (true) {
      bool matched = false;
      for (const auto op : kCmp) {
        if (atOp(op)) {
          const Token opTok = take();
          const Fold fold(*this);
          auto rhs = concatenation();
          lhs = stamp(ast::make(Kind::Binary, std::string(op), {std::move(lhs), std::move(rhs)}),
                      opTok);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  NodePtr concatenation() {
    auto lhs = additive();
    while (atOp("||") || atOp("|||")) {
      const Token op = take();
      const Fold fold(*this);
      auto rhs = additive();
      lhs = stamp(ast::make(Kind::Binary, op.text, {std::move(lhs), std::move(rhs)}), op);
    }
    return lhs;
  }

  NodePtr additive() {
    auto lhs = multiplicative();
    while (atOp("+") || atOp("-")) {
      const Token op = take();
      const Fold fold(*this);
      auto rhs = multiplicative();
      lhs = stamp(ast::make(Kind::Binary, op.text, {std::move(lhs), std::move(rhs)}), op);
    }
    return lhs;
  }

  NodePtr multiplicative() {
    auto lhs = power();
    while (atOp("*") || atOp("/") || atOp("%")) {
      const Token op = take();
      const Fold fold(*this);
      auto rhs = power();
      lhs = stamp(ast::make(Kind::Binary, op.text, {std::move(lhs), std::move(rhs)}), op);
    }
    return lhs;
  }

  NodePtr power() {
    auto lhs = prefix();
    if (atOp("^")) {
      const Token op = take();
      auto rhs = nested(&Parser::power);  // right-associative
      return stamp(ast::make(Kind::Binary, "^", {std::move(lhs), std::move(rhs)}), op);
    }
    return lhs;
  }

  NodePtr prefix() {
    static constexpr std::array<std::string_view, 10> kPrefix = {
        "!", "@", "*", "-", "+", "~", "^", "<>", "|<>", "|>"};
    for (const auto op : kPrefix) {
      if (atOp(op)) {
        const Token opTok = take();
        auto operand = nested(&Parser::prefix);
        return stamp(ast::make(Kind::Unary, std::string(op), {std::move(operand)}), opTok);
      }
    }
    if (atOp("|")) {  // repeated alternation |e (prefix position only)
      const Token opTok = take();
      auto operand = nested(&Parser::prefix);
      return stamp(ast::make(Kind::Unary, "|", {std::move(operand)}), opTok);
    }
    if (atOp("\\")) {  // \e non-null test (prefix; postfix \ is the limit)
      const Token opTok = take();
      auto operand = nested(&Parser::prefix);
      return stamp(ast::make(Kind::Unary, "\\", {std::move(operand)}), opTok);
    }
    if (atOp("/")) {  // /e null test
      const Token opTok = take();
      auto operand = nested(&Parser::prefix);
      return stamp(ast::make(Kind::Unary, "/", {std::move(operand)}), opTok);
    }
    if (atKw("not")) {
      const Token opTok = take();
      auto operand = nested(&Parser::prefix);
      return stamp(ast::make(Kind::Not, "", {std::move(operand)}), opTok);
    }
    if (atKw("create")) {  // Unicon `create e` == `|<> e`
      const Token opTok = take();
      auto operand = nested(&Parser::prefix);
      return stamp(ast::make(Kind::Unary, "|<>", {std::move(operand)}), opTok);
    }
    return postfix();
  }

  NodePtr postfix() {
    auto e = primary();
    while (true) {
      if (atOp("(")) {
        const Token open = take();
        const Fold fold(*this);
        auto call = ast::make(Kind::Invoke);
        call->kids.push_back(std::move(e));
        parseArgs(*call);
        e = stamp(std::move(call), open);
        continue;
      }
      if (atOp("[")) {
        const Token open = take();
        const Fold fold(*this);
        auto idx = expression();
        if (atOp(":")) {  // slice x[i:j]
          ++pos_;
          auto to = expression();
          expectOp("]");
          e = stamp(ast::make(Kind::Slice, "", {std::move(e), std::move(idx), std::move(to)}),
                    open);
          continue;
        }
        expectOp("]");
        e = stamp(ast::make(Kind::Index, "", {std::move(e), std::move(idx)}), open);
        continue;
      }
      if (atOp("::")) {
        const Token op = take();
        const Fold fold(*this);
        if (!at(TokKind::Ident)) err("expected method name after ::");
        const Token name = take();
        auto call = ast::make(Kind::NativeInvoke, name.text);
        call->kids.push_back(std::move(e));
        expectOp("(");
        parseArgs(*call);
        e = stamp(std::move(call), op);
        continue;
      }
      if (atOp(".") && ahead().kind == TokKind::Ident) {
        const Token op = take();
        const Fold fold(*this);
        const Token name = take();
        e = stamp(ast::make(Kind::Field, name.text, {std::move(e)}), op);
        continue;
      }
      if (atOp("\\")) {
        const Token op = take();
        const Fold fold(*this);
        auto bound = prefix();
        e = stamp(ast::make(Kind::Limit, "", {std::move(e), std::move(bound)}), op);
        continue;
      }
      return e;
    }
  }

  /// Arguments up to the closing ')' (the '(' is already consumed).
  void parseArgs(ast::Node& call) {
    while (!atOp(")")) {
      call.kids.push_back(expression());
      if (atOp(",")) {
        ++pos_;
        continue;
      }
      if (!atOp(")")) err("expected ',' or ')' in argument list");
    }
    expectOp(")");
  }

  NodePtr primary() {
    const Token& t = cur();
    switch (t.kind) {
      case TokKind::IntLit: return stamp(ast::make(Kind::IntLit, take().text), t);
      case TokKind::RealLit: return stamp(ast::make(Kind::RealLit, take().text), t);
      case TokKind::StrLit: return stamp(ast::make(Kind::StrLit, take().text), t);
      case TokKind::Ident: return stamp(ast::make(Kind::Ident, take().text), t);
      case TokKind::AmpKeyword: {
        const Token kw = take();
        if (kw.text == "&null") return stamp(ast::make(Kind::NullLit), kw);
        if (kw.text == "&fail") return stamp(ast::make(Kind::FailLit), kw);
        if (kw.text == "&subject" || kw.text == "&pos" || kw.text == "&error" ||
            kw.text == "&errornumber" || kw.text == "&errorvalue") {
          return stamp(ast::make(Kind::KeywordVar, kw.text.substr(1)), kw);
        }
        err("unknown keyword " + kw.text);
      }
      case TokKind::Keyword:
        // if-then-else is also usable in expression position
        if (t.isKeyword("if")) {
          const Token kw = take();
          auto cond = expression();
          expectKw("then");
          auto thenE = expression();
          auto n = ast::make(Kind::IfStmt, "", {std::move(cond), std::move(thenE)});
          if (atKw("else")) {
            ++pos_;
            n->kids.push_back(expression());
          }
          return stamp(std::move(n), kw);
        }
        err("unexpected keyword '" + t.text + "' in expression");
      default: break;
    }
    if (atOp("(")) {
      const Token open = take();
      auto seq = ast::make(Kind::ExprSeq);
      seq->kids.push_back(expression());
      while (atOp(";")) {
        skipSemis();
        if (atOp(")")) break;
        seq->kids.push_back(expression());
      }
      expectOp(")");
      if (seq->kids.size() == 1) return seq->kids[0];  // plain parenthesization
      return stamp(std::move(seq), open);
    }
    if (atOp("[")) {
      const Token open = take();
      auto lit = ast::make(Kind::ListLit);
      while (!atOp("]")) {
        lit->kids.push_back(expression());
        if (atOp(",")) ++pos_;
      }
      expectOp("]");
      return stamp(std::move(lit), open);
    }
    if (atOp("{")) {
      // Braces in expression position (e.g. `|> { local x; ...; x }`,
      // Fig. 4): a statement sequence whose *last* term delegates
      // iteration, unlike a statement block which is bounded throughout.
      const Token open = take();
      auto seq = ast::make(Kind::ExprSeq);
      while (!atOp("}")) {
        if (at(TokKind::End)) err("unterminated brace expression");
        seq->kids.push_back(statement());
      }
      expectOp("}");
      return stamp(std::move(seq), open);
    }
    err("unexpected token '" + t.text + "'");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // nesting level of the construct being parsed
  std::size_t reach_ = 0;  // deepest level reached in the current subtree
};

}  // namespace

ast::NodePtr parseProgram(std::string_view source) {
  Parser p(tokenize(source));
  return p.program();
}

ast::NodePtr parseExpression(std::string_view source) {
  Parser p(tokenize(source));
  return p.expressionOnly();
}

}  // namespace congen::frontend
