/**
 * @file
 * The one JSON codec behind every line format the repo writes and
 * reads back: campaign journal lines, shard heartbeats and store
 * summaries, serve requests and control lines, store entry headers and
 * sync dump lines, and BENCH_perf.json.
 *
 * escape() is the writers' string escaper. parse() is one strict
 * reader for the subset those writers emit, shared by every format so
 * that each accepts the same language:
 *
 *  - the top-level value is an object, and objects nest at most
 *    kMaxDepth deep (so hostile input cannot recurse once per byte);
 *  - a document holds at most kMaxMembers members, counted across all
 *    of its objects (so a line cannot build many times its own size
 *    in values, however it nests them);
 *  - values are strings, numbers, booleans and objects — no arrays,
 *    no null;
 *  - strings take what escape() writes plus JSON's other
 *    one-character escapes; a \u escape above 00FF and a raw byte
 *    below 0x20 are rejected, other bytes pass through verbatim;
 *  - numbers follow the JSON grammar and are kept as written, so the
 *    typed accessor decides what they mean;
 *  - a repeated key keeps its last value (find() and field() return
 *    it); JSON whitespace (space, tab, CR, LF) may separate tokens,
 *    and nothing may follow the object.
 *
 * The typed line parsers layer their own shape rules (flat requests,
 * journal counters) and known-field types on top through field(): a
 * known field given a value of the wrong type fails the parse, never
 * falls back to a default.
 */

#ifndef SIMALPHA_COMMON_JSON_HH
#define SIMALPHA_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simalpha {
namespace json {

/** Escape @p s for a JSON string literal: `"` and `\` backslashed,
 *  newline and tab as \n and \t, other bytes below 0x20 as \u00xx,
 *  every other byte verbatim. */
std::string escape(const std::string &s);

/** Deepest object nesting parse() accepts; the top-level object is
 *  depth 1. */
constexpr int kMaxDepth = 8;

/** Most members parse() builds for one document, over all of its
 *  objects; the member past it fails the parse. */
constexpr int kMaxMembers = 4096;

class Value
{
  public:
    enum class Kind { String, Number, Bool, Object };
    using Members = std::vector<std::pair<std::string, Value>>;

    Kind kind() const { return _kind; }

    /** An object's members in document order, a repeated key once per
     *  occurrence (empty for other kinds). */
    const Members &members() const { return _members; }

    /** The member named @p key — its last occurrence — or nullptr
     *  (always, for non-objects). */
    const Value *find(std::string_view key) const;

    /**
     * Typed reads: false, leaving *out untouched, when the value is of
     * another kind. A std::uint64_t is a number written as a plain run
     * of digits that fits in 64 bits; a double is any number within
     * double range; an object is read as a pointer to itself.
     */
    bool read(std::string *out) const;
    bool read(std::uint64_t *out) const;
    bool read(double *out) const;
    bool read(bool *out) const;
    bool read(const Value **out) const;

  private:
    friend class Parser;

    Kind _kind = Kind::Object;
    bool _bool = false;
    std::string _text;      ///< string bytes, or a number as written
    Members _members;
};

/** Parse @p text (one object, see the file comment). Returns false
 *  with *error, when given, naming the fault and its byte offset. */
bool parse(const std::string &text, Value *out, std::string *error);

/** Fill *error, when given, with "missing field" or "field ... has the
 *  wrong type" for @p key; returns false. */
bool fieldError(std::string_view key, bool present, std::string *error);

/**
 * Read member @p key of @p object through Value::read. An absent
 * member leaves *out untouched and fails only when @p required; a
 * member of another type always fails. On failure *error, when given,
 * names the field.
 */
template <typename T>
bool
field(const Value &object, std::string_view key, T *out,
      std::string *error, bool required = false)
{
    const Value *v = object.find(key);
    if (v ? v->read(out) : !required)
        return true;
    return fieldError(key, v != nullptr, error);
}

} // namespace json
} // namespace simalpha

#endif // SIMALPHA_COMMON_JSON_HH
