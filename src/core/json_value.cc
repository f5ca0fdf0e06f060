#include "core/json_value.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace axmemo {

namespace {

/** Deepest nesting accepted. The parser recurses once per '[' or '{',
 * so untrusted input must not pick the stack depth; the program's own
 * documents nest under 10 deep. */
constexpr int maxDepth = 256;

/** Recursive-descent parser over one text; see header. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(JValue &out, std::string &error)
    {
        skipWs();
        if (!parseValue(out)) {
            error = error_.empty() ? "malformed JSON" : error_;
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            error = "trailing characters after JSON value";
            return false;
        }
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    bool
    parseValue(JValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
          case '[': {
            if (depth_ == maxDepth)
                return fail("nesting deeper than " +
                            std::to_string(maxDepth));
            ++depth_;
            const bool ok = text_[pos_] == '{' ? parseObject(out)
                                                : parseArray(out);
            --depth_;
            return ok;
          }
          case '"':
            out.kind = JValue::Kind::String;
            return parseString(out.token);
          case 't':
            out.kind = JValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JValue::Kind::Null;
            return literal("null");
          default: return parseNumber(out);
        }
    }

    bool
    parseObject(JValue &out)
    {
        out.kind = JValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JValue value;
            if (!parseValue(value))
                return false;
            out.members.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JValue &out)
    {
        out.kind = JValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JValue value;
            if (!parseValue(value))
                return false;
            out.elements.push_back(std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail("unterminated escape");
                const char esc = text_[pos_ + 1];
                pos_ += 2;
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_ + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            code |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                    }
                    pos_ += 4;
                    // Config strings are ASCII; reject the rest rather
                    // than silently mangling them.
                    if (code > 0x7f)
                        return fail("non-ASCII \\u escape unsupported");
                    out += static_cast<char>(code);
                    break;
                  }
                  default: return fail("unknown escape");
                }
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected value");
        out.kind = JValue::Kind::Number;
        out.token = text_.substr(start, pos_ - start);
        // Validate by conversion.
        char *end = nullptr;
        errno = 0;
        std::strtod(out.token.c_str(), &end);
        if (end != out.token.c_str() + out.token.size())
            return fail("malformed number '" + out.token + "'");
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

const JValue *
JValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

Expected<JValue>
parseJsonValue(const std::string &text)
{
    JValue root;
    std::string error;
    Parser parser(text);
    if (!parser.parse(root, error))
        return Error{ErrorCode::Parse, "json", error};
    return root;
}

Expected<double>
jsonNumber(const JValue &v, const std::string &key)
{
    if (v.kind != JValue::Kind::Number)
        return Error{ErrorCode::Parse, "json",
                     "field '" + key + "' must be a number"};
    return std::strtod(v.token.c_str(), nullptr);
}

Expected<std::uint64_t>
jsonU64(const JValue &v, const std::string &key)
{
    if (v.kind != JValue::Kind::Number ||
        v.token.find_first_of(".eE-") != std::string::npos)
        return Error{ErrorCode::Parse, "json",
                     "field '" + key +
                         "' must be a non-negative integer"};
    errno = 0;
    const std::uint64_t parsed =
        std::strtoull(v.token.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return Error{ErrorCode::Parse, "json",
                     "field '" + key + "' out of range"};
    return parsed;
}

Expected<bool>
jsonBool(const JValue &v, const std::string &key)
{
    if (v.kind != JValue::Kind::Bool)
        return Error{ErrorCode::Parse, "json",
                     "field '" + key + "' must be a boolean"};
    return v.boolean;
}

Expected<std::string>
jsonString(const JValue &v, const std::string &key)
{
    if (v.kind != JValue::Kind::String)
        return Error{ErrorCode::Parse, "json",
                     "field '" + key + "' must be a string"};
    return v.token;
}

} // namespace axmemo
