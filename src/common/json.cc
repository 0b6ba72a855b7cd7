#include "common/json.hh"

#include <charconv>
#include <cstdio>

#include "common/number.hh"

namespace simalpha {
namespace json {

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

const Value *
Value::find(std::string_view key) const
{
    for (auto it = _members.rbegin(); it != _members.rend(); ++it)
        if (it->first == key)
            return &it->second;
    return nullptr;
}

bool
Value::read(std::string *out) const
{
    if (_kind != Kind::String)
        return false;
    *out = _text;
    return true;
}

bool
Value::read(std::uint64_t *out) const
{
    // A sign, a fraction, an exponent or 64-bit overflow is no u64.
    return _kind == Kind::Number && parseNumber(_text, out);
}

bool
Value::read(double *out) const
{
    // Out of double range reads as infinity, which no writer can print
    // back as a JSON number.
    return _kind == Kind::Number && parseNumber(_text, out);
}

bool
Value::read(bool *out) const
{
    if (_kind != Kind::Bool)
        return false;
    *out = _bool;
    return true;
}

bool
Value::read(const Value **out) const
{
    if (_kind != Kind::Object)
        return false;
    *out = this;
    return true;
}

class Parser
{
  public:
    explicit Parser(const std::string &text)
        : _begin(text.data()), _p(text.data()),
          _end(text.data() + text.size())
    {
    }

    bool
    document(Value *out)
    {
        ws();
        if (!object(out, 1))
            return false;
        ws();
        return _p == _end || fail("trailing bytes after the object");
    }

    std::string error;

  private:
    bool
    fail(const char *what)
    {
        error = std::string(what) + " at byte " +
                std::to_string(_p - _begin);
        return false;
    }

    bool at(char c) const { return _p != _end && *_p == c; }

    bool
    eat(char c)
    {
        if (!at(c))
            return false;
        _p++;
        return true;
    }

    /** Consume one or more decimal digits. */
    bool
    digits()
    {
        const char *start = _p;
        while (_p != _end && *_p >= '0' && *_p <= '9')
            _p++;
        return _p != start;
    }

    void
    ws()
    {
        while (eat(' ') || eat('\t') || eat('\n') || eat('\r')) {
        }
    }

    bool
    object(Value *out, int depth)
    {
        if (!at('{'))
            return fail("expected an object");
        if (depth > kMaxDepth)
            return fail("objects nested too deep");
        _p++;
        out->_kind = Value::Kind::Object;
        ws();
        if (eat('}'))
            return true;
        // One allocation each for a plain journal line and its counters.
        out->_members.reserve(16);
        for (;;) {
            if (++_memberCount > kMaxMembers)
                return fail("too many members");
            auto &[key, member] = out->_members.emplace_back();
            if (!string(&key))
                return false;
            ws();
            if (!eat(':'))
                return fail("expected ':'");
            ws();
            if (!value(&member, depth))
                return false;
            ws();
            if (eat('}'))
                return true;
            if (!eat(','))
                return fail("expected ',' or '}'");
            ws();
        }
    }

    bool
    value(Value *out, int depth)
    {
        if (at('{'))
            return object(out, depth + 1);
        if (at('"')) {
            out->_kind = Value::Kind::String;
            return string(&out->_text);
        }
        for (std::string_view word : {"true", "false"}) {
            if (std::string_view(_p, std::size_t(_end - _p))
                    .substr(0, word.size()) == word) {
                _p += word.size();
                out->_kind = Value::Kind::Bool;
                out->_bool = word == "true";
                return true;
            }
        }
        // JSON's number grammar, kept as written.
        const char *start = _p;
        eat('-');
        if (!eat('0') && !digits())
            return fail("expected a value");
        if (eat('.') && !digits())
            return fail("expected a digit");
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (!digits())
                return fail("expected a digit");
        }
        out->_kind = Value::Kind::Number;
        out->_text.assign(start, _p);
        return true;
    }

    bool
    string(std::string *out)
    {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";
        if (!eat('"'))
            return fail("expected a string");
        for (;;) {
            const char *run = _p;
            while (_p != _end && *_p != '"' && *_p != '\\' &&
                   static_cast<unsigned char>(*_p) >= 0x20)
                _p++;
            out->append(run, _p);
            if (_p == _end)
                return fail("unterminated string");
            if (eat('"'))
                return true;
            if (!eat('\\'))
                return fail("control byte in a string");
            std::size_t simple =
                _p == _end ? kEscapes.npos : kEscapes.find(*_p);
            if (simple != kEscapes.npos) {
                *out += kEscaped[simple];
                _p++;
                continue;
            }
            if (!eat('u'))
                return fail("unknown escape");
            unsigned code = 0;
            if (_end - _p < 4 ||
                std::from_chars(_p, _p + 4, code, 16).ptr != _p + 4)
                return fail("bad \\u escape");
            // Strings are bytes: escape() only writes \u00xx.
            if (code > 0xFF)
                return fail("\\u escape above 00FF");
            *out += char(code);
            _p += 4;
        }
    }

    const char *const _begin;
    const char *_p;
    const char *const _end;
    int _memberCount = 0;
};

bool
parse(const std::string &text, Value *out, std::string *error)
{
    Value v;
    Parser parser(text);
    if (!parser.document(&v)) {
        if (error)
            *error = parser.error;
        return false;
    }
    *out = std::move(v);
    return true;
}

bool
fieldError(std::string_view key, bool present, std::string *error)
{
    if (error)
        *error = present ? "field \"" + std::string(key) +
                               "\" has the wrong type"
                         : "missing field \"" + std::string(key) + "\"";
    return false;
}

} // namespace json
} // namespace simalpha
