/**
 * @file
 * INI-style configuration files.
 *
 * The Accelerometer artifact drives the model from parameter configuration
 * files; this parser provides that front end. Grammar:
 *
 *     # comment            ; comment
 *     [section]
 *     key = value
 *
 * Keys outside any section land in the "" (global) section. Section and
 * key lookups are case-sensitive. Duplicate keys overwrite (last wins)
 * with a warning; duplicate sections merge.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace accel {

/** Parsed configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Parse configuration text. @throws FatalError on syntax errors. */
    static Config fromString(const std::string &text);

    /** Load and parse a file. @throws FatalError if unreadable. */
    static Config fromFile(const std::string &path);

    /** True when the section/key pair exists. */
    bool has(const std::string &section, const std::string &key) const;

    /** Raw string value, or std::nullopt when absent. */
    std::optional<std::string> get(const std::string &section,
                                   const std::string &key) const;

    /**
     * Required string value.
     * @throws FatalError when the key is absent.
     */
    std::string getString(const std::string &section,
                          const std::string &key) const;

    /** Required double. @throws FatalError when absent or malformed. */
    double getDouble(const std::string &section,
                     const std::string &key) const;

    /** Required count (non-negative integer, sci notation OK). */
    std::uint64_t getCount(const std::string &section,
                           const std::string &key) const;

    /** Required boolean. */
    bool getBool(const std::string &section, const std::string &key) const;

    /**
     * The section parsers' one way to read an optional key: when
     * @p key is present in @p section, parse it into @p field and
     * return true; when absent, leave @p field — whose default member
     * initialiser is the default — untouched and return false.
     * Integers parse as counts (parseCount), and the std::uint32_t
     * overload range-checks, so no caller narrows a wider value.
     *
     * @throws FatalError naming the key and [section] when the value
     *         is malformed or out of the field's range.
     */
    bool read(const std::string &section, const std::string &key,
              double &field) const;
    bool read(const std::string &section, const std::string &key,
              std::uint32_t &field) const;
    bool read(const std::string &section, const std::string &key,
              std::uint64_t &field) const;
    bool read(const std::string &section, const std::string &key,
              bool &field) const;
    bool read(const std::string &section, const std::string &key,
              std::string &field) const;

    /**
     * read() for a field that @p parse converts from the value text (an
     * enum name, a window list); its errors also name the key.
     */
    template <typename T, typename Parse>
    bool
    read(const std::string &section, const std::string &key, T &field,
         Parse &&parse) const
    {
        std::optional<std::string> v = get(section, key);
        if (v)
            field = parseValue(section, key, *v, parse);
        return v.has_value();
    }

    /** "config key '<key>' in [<section>]": how every error names a key. */
    static std::string keyName(const std::string &section,
                               const std::string &key);

    /** All section names in insertion order (the global "" first if used). */
    std::vector<std::string> sections() const;

    /** All keys in a section, in insertion order. */
    std::vector<std::string> keys(const std::string &section) const;

    /** Insert or overwrite a value programmatically. */
    void set(const std::string &section, const std::string &key,
             const std::string &value);

    /**
     * Keys of @p section that no accessor has probed yet, in insertion
     * order. Every has()/get*()/read() call records its (section,
     * key) pair — whether or not the key exists — so after a parser
     * has walked a section, anything left here is a key the parser
     * does not recognise (typically a typo like `tier_hege_delay`),
     * or a group key read only with its enabling key. Access
     * recording is not synchronised: parse a Config from one thread
     * before fanning work out.
     */
    std::vector<std::string> unusedKeys(const std::string &section) const;

    /**
     * Reject every unusedKeys() entry of @p section by name, with
     * @p hint appended: a section parser calls this once it has read
     * every key it recognises, so a typo fails loudly instead of
     * silently keeping a default.
     */
    void rejectUnknownKeys(const std::string &section,
                           const std::string &hint = "") const;

  private:
    /** @p parse applied to @p text; its FatalError re-raised via keyName. */
    template <typename Parse>
    static auto
    parseValue(const std::string &section, const std::string &key,
               const std::string &text, Parse &&parse)
    {
        try {
            return parse(text);
        } catch (const FatalError &err) {
            fatal(keyName(section, key) + ": " + err.reason());
        }
    }

    struct Section
    {
        std::vector<std::string> order;
        std::map<std::string, std::string> values;
    };

    void noteAccess(const std::string &section,
                    const std::string &key) const;

    std::vector<std::string> sectionOrder_;
    std::map<std::string, Section> sections_;
    /** Probed (section, key) pairs; mutable so const getters record. */
    mutable std::map<std::string, std::set<std::string>> accessed_;
};

} // namespace accel
