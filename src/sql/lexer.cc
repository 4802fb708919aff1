#include "sql/lexer.h"

#include <cctype>

#include "util/string_util.h"

namespace querc::sql {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

/// Single-pass tokenizer shared by the strict and lenient entry points.
class LexerImpl {
 public:
  LexerImpl(std::string_view text, const LexOptions& options, bool lenient)
      : text_(text),
        traits_(GetDialectTraits(options.dialect)),
        options_(options),
        lenient_(lenient) {}

  util::StatusOr<TokenList> Run() {
    TokenList tokens;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      size_t start = pos_;
      if (c == '-' && Peek(1) == '-') {
        LexLineComment(tokens, start);
      } else if (c == '/' && Peek(1) == '*') {
        QUERC_RETURN_IF_ERROR(LexBlockComment(tokens, start));
      } else if (c == '\'') {
        QUERC_RETURN_IF_ERROR(LexString(tokens, start));
      } else if (c == '"') {
        QUERC_RETURN_IF_ERROR(LexQuotedIdent(tokens, start, '"', '"'));
      } else if (traits_.extra_ident_open != '\0' &&
                 c == traits_.extra_ident_open) {
        QUERC_RETURN_IF_ERROR(LexQuotedIdent(tokens, start,
                                             traits_.extra_ident_open,
                                             traits_.extra_ident_close));
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && std::isdigit(
                                  static_cast<unsigned char>(Peek(1))))) {
        LexNumber(tokens, start);
      } else if (IsIdentStart(c)) {
        LexWord(tokens, start);
      } else if (c == '?') {
        ++pos_;
        tokens.push_back({TokenType::kParameter, "?", start});
      } else if (c == '@' && traits_.at_parameters && IsIdentStart(Peek(1))) {
        ++pos_;
        size_t s = pos_;
        while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
        tokens.push_back({TokenType::kParameter, SigilText('@', s), start});
      } else if (c == '$' && traits_.dollar_parameters &&
                 std::isdigit(static_cast<unsigned char>(Peek(1)))) {
        ++pos_;
        size_t s = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        tokens.push_back({TokenType::kParameter, SigilText('$', s), start});
      } else if (LexOperatorOrPunct(tokens, start)) {
        // handled
      } else if (lenient_) {
        ++pos_;  // skip unknown byte
      } else {
        return util::Status::Corruption(
            util::StrFormat("unexpected byte 0x%02x at offset %zu",
                            static_cast<unsigned char>(c), pos_));
      }
    }
    return tokens;
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  /// `sigil` followed by text_[s, pos_). Built by appending: GCC 12
  /// reports a false -Wrestrict on `"@" + std::string` in Release.
  std::string SigilText(char sigil, size_t s) const {
    std::string out(1, sigil);
    out.append(text_.substr(s, pos_ - s));
    return out;
  }

  void LexLineComment(TokenList& tokens, size_t start) {
    size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    if (options_.keep_comments) {
      tokens.push_back({TokenType::kComment,
                        std::string(text_.substr(pos_, end - pos_)), start});
    }
    pos_ = end;
  }

  util::Status LexBlockComment(TokenList& tokens, size_t start) {
    size_t end = text_.find("*/", pos_ + 2);
    if (end == std::string_view::npos) {
      if (!lenient_) {
        return util::Status::InvalidArgument(
            util::StrFormat("unterminated block comment at offset %zu", pos_));
      }
      end = text_.size();
    } else {
      end += 2;
    }
    if (options_.keep_comments) {
      tokens.push_back({TokenType::kComment,
                        std::string(text_.substr(pos_, end - pos_)), start});
    }
    pos_ = end;
    return util::Status::OK();
  }

  util::Status LexString(TokenList& tokens, size_t start) {
    ++pos_;  // opening quote
    std::string value;
    for (;;) {
      if (pos_ >= text_.size()) {
        if (!lenient_) {
          return util::Status::InvalidArgument(util::StrFormat(
              "unterminated string literal at offset %zu", start));
        }
        break;
      }
      char c = text_[pos_];
      if (c == '\'') {
        if (Peek(1) == '\'') {  // '' escape
          value += '\'';
          pos_ += 2;
          continue;
        }
        ++pos_;
        break;
      }
      value += c;
      ++pos_;
    }
    tokens.push_back({TokenType::kString, std::move(value), start});
    return util::Status::OK();
  }

  util::Status LexQuotedIdent(TokenList& tokens, size_t start, char open,
                              char close) {
    ++pos_;  // opening delimiter
    std::string value;
    for (;;) {
      if (pos_ >= text_.size()) {
        if (!lenient_) {
          return util::Status::InvalidArgument(util::StrFormat(
              "unterminated quoted identifier ('%c') at offset %zu", open,
              start));
        }
        break;
      }
      char c = text_[pos_];
      if (c == close) {
        if (open == close && Peek(1) == close) {  // "" escape
          value += close;
          pos_ += 2;
          continue;
        }
        ++pos_;
        break;
      }
      value += c;
      ++pos_;
    }
    tokens.push_back({TokenType::kQuotedIdentifier, std::move(value), start});
    return util::Status::OK();
  }

  void LexNumber(TokenList& tokens, size_t start) {
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      size_t mark = pos_;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
      } else {
        pos_ = mark;  // 'e' starts an identifier, not an exponent
      }
    }
    tokens.push_back({TokenType::kNumber,
                      std::string(text_.substr(start, pos_ - start)), start});
  }

  void LexWord(TokenList& tokens, size_t start) {
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    std::string word(text_.substr(start, pos_ - start));
    std::string upper = util::ToUpper(word);
    if (traits_.is_keyword(upper)) {
      tokens.push_back({TokenType::kKeyword, std::move(upper), start});
    } else {
      tokens.push_back({TokenType::kIdentifier, std::move(word), start});
    }
  }

  /// Multi-char operators first, then single-char operators/punctuation.
  bool LexOperatorOrPunct(TokenList& tokens, size_t start) {
    static constexpr std::string_view kTwoChar[] = {
        "<=", ">=", "<>", "!=", "||", "::", "->",
    };
    std::string_view rest = text_.substr(pos_);
    for (std::string_view op : kTwoChar) {
      if (rest.size() >= 2 && rest.substr(0, 2) == op) {
        tokens.push_back({TokenType::kOperator, std::string(op), start});
        pos_ += 2;
        return true;
      }
    }
    char c = text_[pos_];
    switch (c) {
      case '=':
      case '<':
      case '>':
      case '+':
      case '-':
      case '*':
      case '/':
      case '%':
      case '.':
        tokens.push_back({TokenType::kOperator, std::string(1, c), start});
        ++pos_;
        return true;
      case '(':
      case ')':
      case ',':
      case ';':
        tokens.push_back({TokenType::kPunct, std::string(1, c), start});
        ++pos_;
        return true;
      default:
        return false;
    }
  }

  std::string_view text_;
  const DialectTraits& traits_;
  const LexOptions& options_;
  bool lenient_;
  size_t pos_ = 0;
};

}  // namespace

const char* TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kKeyword:
      return "Keyword";
    case TokenType::kIdentifier:
      return "Identifier";
    case TokenType::kQuotedIdentifier:
      return "QuotedIdentifier";
    case TokenType::kNumber:
      return "Number";
    case TokenType::kString:
      return "String";
    case TokenType::kOperator:
      return "Operator";
    case TokenType::kPunct:
      return "Punct";
    case TokenType::kParameter:
      return "Parameter";
    case TokenType::kComment:
      return "Comment";
    case TokenType::kEnd:
      return "End";
  }
  return "Unknown";
}

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

util::StatusOr<TokenList> Lex(std::string_view text,
                              const LexOptions& options) {
  LexerImpl impl(text, options, /*lenient=*/false);
  return impl.Run();
}

TokenList LexLenient(std::string_view text, const LexOptions& options) {
  LexerImpl impl(text, options, /*lenient=*/true);
  auto result = impl.Run();
  // Lenient mode never returns an error.
  return result.ok() ? std::move(result).value() : TokenList{};
}

}  // namespace querc::sql
