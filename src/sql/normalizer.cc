#include "sql/normalizer.h"

#include "util/string_util.h"

namespace querc::sql {
namespace {

/// Index of the nearest non-comment token before `i`, or npos.
size_t PrevToken(const TokenList& tokens, size_t i) {
  while (i-- > 0) {
    if (tokens[i].type != TokenType::kComment) return i;
  }
  return std::string::npos;
}

/// Index of the nearest non-comment token after `i`, or npos.
size_t NextToken(const TokenList& tokens, size_t i) {
  for (++i; i < tokens.size(); ++i) {
    if (tokens[i].type != TokenType::kComment) return i;
  }
  return std::string::npos;
}

/// True when a +/- at `i` is a unary sign on a numeric literal rather than
/// a binary operator: the next token is a number and the previous token
/// cannot end an expression. Folding the sign into the literal keeps
/// `x = -5` and `x = 5` on the same template fingerprint.
bool IsUnarySignOnNumber(const TokenList& tokens, size_t i) {
  const Token& t = tokens[i];
  if (!t.IsOperator("+") && !t.IsOperator("-")) return false;
  size_t next = NextToken(tokens, i);
  if (next == std::string::npos ||
      tokens[next].type != TokenType::kNumber) {
    return false;
  }
  size_t prev = PrevToken(tokens, i);
  if (prev == std::string::npos) return true;  // leading sign
  const Token& p = tokens[prev];
  switch (p.type) {
    case TokenType::kOperator:
      return true;  // `x = -5`, `y < -1`
    case TokenType::kKeyword:
      return true;  // `SELECT -5`, `AND -5 < x`, `BETWEEN -5 AND 5`
    case TokenType::kPunct:
      return p.text != ")";  // `(-5`, `, -5` — but `(a+b) - 5` is binary
    default:
      return false;  // identifier/literal before the sign: binary
  }
}

}  // namespace

std::vector<std::string> Normalize(const TokenList& tokens,
                                   const NormalizeOptions& options) {
  std::vector<std::string> words;
  words.reserve(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    switch (t.type) {
      case TokenType::kComment:
        if (!options.strip_comments) words.push_back(t.text);
        break;
      case TokenType::kNumber:
        words.push_back(options.fold_literals ? kNumberPlaceholder : t.text);
        break;
      case TokenType::kString:
        // Re-quote (re-escaping embedded quotes the lexer unescaped) so
        // the normalized form stays lexable and `'O''Brien'` cannot
        // collide with identifier text.
        if (options.fold_literals) {
          words.push_back(kStringPlaceholder);
        } else {
          // Appends, not "'" + std::string: GCC 12 reports a false
          // -Wrestrict on the latter in Release.
          std::string quoted(1, '\'');
          quoted += util::ReplaceAll(t.text, "'", "''");
          quoted += '\'';
          words.push_back(std::move(quoted));
        }
        break;
      case TokenType::kParameter:
        words.push_back(options.fold_parameters ? kParamPlaceholder : t.text);
        break;
      case TokenType::kIdentifier:
      case TokenType::kQuotedIdentifier:
        words.push_back(options.lowercase_identifiers ? util::ToLower(t.text)
                                                      : t.text);
        break;
      case TokenType::kKeyword:
        words.push_back(t.text);
        break;
      case TokenType::kOperator:
        // A unary sign on a number folds into the literal placeholder so
        // negative and positive bindings share one fingerprint.
        if (options.fold_literals && IsUnarySignOnNumber(tokens, i)) break;
        words.push_back(t.text);
        break;
      case TokenType::kPunct:
        words.push_back(t.text);
        break;
      case TokenType::kEnd:
        break;
    }
  }
  return words;
}

std::string NormalizedText(const TokenList& tokens,
                           const NormalizeOptions& options) {
  return util::Join(Normalize(tokens, options), " ");
}

}  // namespace querc::sql
