#include "cdecl/cdecl.hpp"

#include <cctype>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::cdecl_parser {

std::string to_string(Access access) {
  switch (access) {
    case Access::kRead: return "read";
    case Access::kWrite: return "write";
    case Access::kReadWrite: return "readwrite";
  }
  return "readwrite";
}

std::string Type::spelling() const {
  std::string out;
  if (is_const) out += "const ";
  out += base;
  for (int i = 0; i < pointer_depth; ++i) out += '*';
  if (is_reference) out += '&';
  return out;
}

Access Param::inferred_access() const {
  if (!type.is_indirect()) return Access::kRead;
  if (type.is_const) return Access::kRead;
  // Naming convention used by the skeleton generator: parameters named out_*
  // or *_out are pure outputs.
  if (strings::starts_with(name, "out_") || strings::ends_with(name, "_out") ||
      name == "out") {
    return Access::kWrite;
  }
  return Access::kReadWrite;
}

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokKind { kIdentifier, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) { advance(); }

  const Token& current() const noexcept { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  bool accept(std::string_view text) {
    if (current_.text == text) {
      advance();
      return true;
    }
    return false;
  }

  void expect(std::string_view text) {
    if (!accept(text)) {
      throw ParseError("expected '" + std::string(text) + "' but found '" +
                       (current_.kind == TokKind::kEnd ? "<end>" : current_.text) +
                       "'");
    }
  }

  bool at_end() const noexcept { return current_.kind == TokKind::kEnd; }

 private:
  std::string_view source_;
  size_t pos_ = 0;
  Token current_;

  void advance() {
    // Skip whitespace and comments.
    while (pos_ < source_.size()) {
      char c = source_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < source_.size() && source_[pos_ + 1] == '/') {
        while (pos_ < source_.size() && source_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < source_.size() && source_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < source_.size() &&
               !(source_[pos_] == '*' && source_[pos_ + 1] == '/')) {
          ++pos_;
        }
        pos_ = pos_ + 2 <= source_.size() ? pos_ + 2 : source_.size();
      } else {
        break;
      }
    }
    if (pos_ >= source_.size()) {
      current_ = Token{TokKind::kEnd, ""};
      return;
    }
    char c = source_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < source_.size() &&
             (std::isalnum(static_cast<unsigned char>(source_[pos_])) ||
              source_[pos_] == '_')) {
        ++pos_;
      }
      current_ = Token{TokKind::kIdentifier, std::string(source_.substr(start, pos_ - start))};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < source_.size() &&
             (std::isalnum(static_cast<unsigned char>(source_[pos_])) ||
              source_[pos_] == '.')) {
        ++pos_;
      }
      current_ = Token{TokKind::kIdentifier, std::string(source_.substr(start, pos_ - start))};
      return;
    }
    // '::' is one token; everything else is single-char punctuation.
    if (c == ':' && pos_ + 1 < source_.size() && source_[pos_ + 1] == ':') {
      pos_ += 2;
      current_ = Token{TokKind::kPunct, "::"};
      return;
    }
    ++pos_;
    current_ = Token{TokKind::kPunct, std::string(1, c)};
  }
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const char* const kBuiltinModifiers[] = {"unsigned", "signed", "long", "short"};
const char* const kBuiltinBases[] = {"void",   "bool",   "char", "int",
                                     "float",  "double", "long", "short",
                                     "size_t", "ssize_t"};

bool is_modifier(const std::string& word) {
  for (const char* m : kBuiltinModifiers) {
    if (word == m) return true;
  }
  return false;
}

bool is_builtin_base(const std::string& word) {
  for (const char* b : kBuiltinBases) {
    if (word == b) return true;
  }
  return false;
}

class DeclParser {
 public:
  explicit DeclParser(Lexer& lexer) : lex_(lexer) {}

  FunctionDecl parse() {
    FunctionDecl decl;
    parse_template_prefix(decl);
    decl.return_type = parse_type();
    Token name = lex_.take();
    if (name.kind != TokKind::kIdentifier) {
      throw ParseError("expected function name, found '" + name.text + "'");
    }
    decl.name = name.text;
    lex_.expect("(");
    if (!lex_.accept(")")) {
      int index = 0;
      do {
        decl.params.push_back(parse_param(index++));
      } while (lex_.accept(","));
      lex_.expect(")");
    }
    // Tolerate a trailing const (makes no sense on free functions but costs
    // nothing) and require the terminating semicolon.
    lex_.accept("const");
    lex_.expect(";");
    return decl;
  }

 private:
  Lexer& lex_;

  void parse_template_prefix(FunctionDecl& decl) {
    if (!lex_.accept("template")) return;
    lex_.expect("<");
    do {
      if (!lex_.accept("typename") && !lex_.accept("class")) {
        throw ParseError("expected 'typename' or 'class' in template parameter list");
      }
      Token id = lex_.take();
      if (id.kind != TokKind::kIdentifier) {
        throw ParseError("expected template parameter name");
      }
      decl.template_params.push_back(id.text);
    } while (lex_.accept(","));
    lex_.expect(">");
  }

  /// Parses the '<...>' arguments of a template-id, returning the raw text
  /// (nested templates supported).
  std::string parse_template_args() {
    std::string out = "<";
    int depth = 1;
    while (depth > 0) {
      if (lex_.at_end()) throw ParseError("unterminated template argument list");
      Token t = lex_.take();
      if (t.text == "<") ++depth;
      if (t.text == ">") {
        --depth;
        if (depth == 0) break;
      }
      if (out.size() > 1 && t.kind == TokKind::kIdentifier &&
          std::isalnum(static_cast<unsigned char>(out.back()))) {
        out += ' ';
      }
      out += t.text;
    }
    out += ">";
    return out;
  }

  Type parse_type() {
    Type type;
    // Leading const (also accepted between base and '*' below).
    while (lex_.accept("const")) type.is_const = true;
    lex_.accept("struct");
    lex_.accept("class");

    Token first = lex_.take();
    if (first.kind != TokKind::kIdentifier) {
      throw ParseError("expected type name, found '" + first.text + "'");
    }
    std::string base = first.text;
    // Multi-word builtins: unsigned long long, long double, ...
    if (is_modifier(base)) {
      while (lex_.current().kind == TokKind::kIdentifier &&
             (is_modifier(lex_.current().text) || is_builtin_base(lex_.current().text))) {
        base += ' ' + lex_.take().text;
      }
    } else {
      // Qualified names: a::b::c
      while (lex_.accept("::")) {
        Token part = lex_.take();
        if (part.kind != TokKind::kIdentifier) {
          throw ParseError("expected identifier after '::'");
        }
        base += "::" + part.text;
      }
      if (base == "long" || base == "short") {
        // handled above, unreachable; kept for clarity
      }
      if (lex_.accept("<")) base += parse_template_args();
    }
    type.base = base;
    while (true) {
      if (lex_.accept("const")) {
        type.is_const = true;
      } else if (lex_.accept("*")) {
        ++type.pointer_depth;
      } else if (lex_.accept("&")) {
        type.is_reference = true;
        break;  // nothing may follow '&' in our subset
      } else {
        break;
      }
    }
    return type;
  }

  Param parse_param(int index) {
    Param param;
    param.type = parse_type();
    if (lex_.current().kind == TokKind::kIdentifier) {
      param.name = lex_.take().text;
    } else {
      param.name = "arg" + std::to_string(index);
    }
    // Array suffix normalises to one more level of pointer: float x[] / x[N].
    while (lex_.accept("[")) {
      while (!lex_.at_end() && lex_.current().text != "]") lex_.take();
      lex_.expect("]");
      ++param.type.pointer_depth;
    }
    return param;
  }
};

/// Strips comments, preprocessor lines and block bodies so parse_header()
/// only sees declaration-shaped text: its ';' split and '<' depth count
/// must not see the punctuation inside a comment.
std::string preprocess_header(std::string_view source) {
  std::string out;
  out.reserve(source.size());
  size_t i = 0;
  int brace_depth = 0;
  while (i < source.size()) {
    char c = source[i];
    if (source.substr(i, 2) == "//") {  // line comment (keeps the newline)
      while (i < source.size() && source[i] != '\n') ++i;
      continue;
    }
    if (source.substr(i, 2) == "/*") {  // block comment: one separating space
      const size_t end = source.find("*/", i + 2);
      i = end == std::string_view::npos ? source.size() : end + 2;
      if (brace_depth == 0) out += ' ';
      continue;
    }
    if (c == '#') {  // preprocessor line (with \-continuations)
      while (i < source.size()) {
        if (source[i] == '\n' && (i == 0 || source[i - 1] != '\\')) break;
        ++i;
      }
      continue;
    }
    if (c == '{') {
      ++brace_depth;
      ++i;
      continue;
    }
    if (c == '}') {
      if (brace_depth > 0) --brace_depth;
      ++i;
      // A '};' after a class body would confuse the decl scanner; swallow it.
      while (i < source.size() &&
             (source[i] == ';' || std::isspace(static_cast<unsigned char>(source[i])))) {
        if (source[i] == ';') {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (brace_depth == 0) out += c;
    ++i;
  }
  return out;
}

}  // namespace

FunctionDecl parse_declaration(std::string_view source) {
  std::string text(source);
  if (strings::trim(text).empty()) throw ParseError("empty declaration");
  if (!strings::ends_with(std::string(strings::trim(text)), ";")) text += ';';
  Lexer lexer(text);
  FunctionDecl decl = DeclParser(lexer).parse();
  if (!lexer.at_end()) throw ParseError("trailing tokens after declaration");
  return decl;
}

std::vector<FunctionDecl> parse_header(std::string_view source) {
  const std::string cleaned = preprocess_header(source);
  std::vector<FunctionDecl> decls;
  // Split on ';' at angle-depth zero; try to parse each chunk, skipping
  // non-function statements (using directives, externs, variables...).
  size_t start = 0;
  int angle = 0;
  for (size_t i = 0; i <= cleaned.size(); ++i) {
    bool at_boundary = i == cleaned.size() || (cleaned[i] == ';' && angle == 0);
    if (i < cleaned.size()) {
      if (cleaned[i] == '<') ++angle;
      if (cleaned[i] == '>' && angle > 0) --angle;
    }
    if (!at_boundary) continue;
    std::string_view chunk = strings::trim(
        std::string_view(cleaned).substr(start, i - start));
    start = i + 1;
    if (chunk.empty()) continue;
    if (chunk.find('(') == std::string_view::npos) continue;  // not a function
    if (strings::starts_with(chunk, "using") ||
        strings::starts_with(chunk, "namespace") ||
        strings::starts_with(chunk, "typedef")) {
      continue;
    }
    try {
      decls.push_back(parse_declaration(chunk));
    } catch (const ParseError&) {
      // Headers may contain constructs outside our subset; skip them.
    }
  }
  return decls;
}

}  // namespace peppher::cdecl_parser
