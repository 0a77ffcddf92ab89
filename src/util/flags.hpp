// Command-line flags: one typed table per tool.
//
// A tool binds each flag to the variable it sets, once; the same table
// parses argv, prints --help and, for marp_node, renders a configuration
// back into the argv that parses to it:
//
//   util::Flags flags("chaos_sim");
//   flags.add("--seeds", "N", seeds, "scenarios in the sweep")
//       .choice("--quorum", quorum.geometry, quorum::kGeometryNames, "geometry")
//       .toggle("--matrix", matrix, true, "run the fault matrix");
//   flags.parse(argc, argv);
//
// A value must parse whole: `--seeds 1e2`, `--seeds 5x` and `--servers -1`
// are errors, never a silently different number. A bad or missing value or
// an unknown flag prints `TOOL: --flag: …` and the usage to stderr and exits
// 2; --help or -h prints the usage to stdout and exits 0. The value a bound
// variable holds when its flag is added is the flag's default: --help shows
// it (unless the help text names its own default), and render() writes only
// the flags whose value moved off it.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace marp::util {

/// A node and a time, written NODE@MS: `--fail 4@1000` is node 4 at 1 s.
struct NodeEvent {
  std::uint32_t node = 0;
  sim::SimTime at;
  bool operator==(const NodeEvent&) const = default;
};

/// The names of an enum's values: one table per enum, defined next to it.
template <typename E>
using NameTable = std::span<const std::pair<E, std::string_view>>;

template <typename E>
std::string_view name_of(std::type_identity_t<NameTable<E>> names, E value) {
  for (const auto& [v, name] : names) {
    if (v == value) return name;
  }
  return "?";
}

/// How a value of type T is written on the command line: parse() takes the
/// whole text or fails, format() writes what parse() reads back, and
/// expected() names the syntax for error messages.
template <typename T>
struct Text;

template <typename T>
  requires std::integral<T> && (!std::same_as<T, bool>)
struct Text<T> {
  static std::optional<T> parse(std::string_view text) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
    return value;
  }
  static std::string format(T value) { return std::to_string(value); }
  static std::string expected() {
    return std::is_unsigned_v<T> ? "an unsigned integer" : "an integer";
  }
};

template <>
struct Text<double> {
  static std::optional<double> parse(std::string_view text);  ///< finite only
  static std::string format(double value);  ///< shortest exact form
  static std::string expected() { return "a number"; }
};

template <>
struct Text<std::string> {
  static std::optional<std::string> parse(std::string_view text) { return std::string(text); }
  static std::string format(const std::string& value) { return value; }
  static std::string expected() { return "a value"; }
};

/// Whole, non-negative milliseconds.
template <>
struct Text<sim::SimTime> {
  static std::optional<sim::SimTime> parse(std::string_view text);
  static std::string format(sim::SimTime value);
  static std::string expected() { return "whole milliseconds"; }
};

template <>
struct Text<NodeEvent> {
  static std::optional<NodeEvent> parse(std::string_view text);
  static std::string format(const NodeEvent& value);
  static std::string expected() { return "NODE@MS"; }
};

/// Comma-separated; the empty text is the empty list.
template <typename T>
struct Text<std::vector<T>> {
  static std::optional<std::vector<T>> parse(std::string_view text) {
    std::vector<T> values;
    while (!text.empty()) {
      const std::size_t comma = text.find(',');
      auto value = Text<T>::parse(text.substr(0, comma));
      if (!value || comma + 1 == text.size()) return std::nullopt;
      values.push_back(std::move(*value));
      text.remove_prefix(comma == std::string_view::npos ? text.size() : comma + 1);
    }
    return values;
  }
  static std::string format(const std::vector<T>& values) {
    std::string out;
    for (const T& value : values) {
      if (!out.empty()) out += ',';
      out += Text<T>::format(value);
    }
    return out;
  }
  static std::string expected() { return "a comma-separated list, each " + Text<T>::expected(); }
};

/// A value that is absent unless its flag is given.
template <typename T>
struct Text<std::optional<T>> {
  static std::optional<std::optional<T>> parse(std::string_view text) {
    auto value = Text<T>::parse(text);
    if (!value) return std::nullopt;
    return std::optional<T>(std::move(*value));
  }
  static std::string format(const std::optional<T>& value) {
    return value ? Text<T>::format(*value) : std::string();
  }
  static std::string expected() { return Text<T>::expected(); }
};

/// The names of a NameTable, as the Text of a choice() flag.
template <typename E>
struct Names {
  NameTable<E> table;
  std::optional<E> parse(std::string_view text) const {
    for (const auto& [value, name] : table) {
      if (name == text) return value;
    }
    return std::nullopt;
  }
  std::string format(E value) const { return std::string(name_of<E>(table, value)); }
  std::string list() const {
    std::string out;
    for (const auto& entry : table) {
      if (!out.empty()) out += '|';
      out += entry.second;
    }
    return out;
  }
  std::string expected() const { return "one of " + list(); }
};

/// A malformed command line. what() is `--flag: what went wrong`.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  /// `tool` names the program in the usage line and in error messages.
  explicit Flags(std::string tool) : tool_(std::move(tool)) {}

  /// A flag that takes one value of T, written as `metavar` in --help.
  template <typename T, typename Codec = Text<T>>
  Flags& add(std::string name, std::string metavar, T& target, std::string help,
             Codec codec = {}) {
    const T initial = target;
    return push({std::move(name), std::move(metavar), std::move(help), codec.expected(),
                 codec.format(initial), false,
                 [&target, codec](std::string_view text) {
                   auto value = codec.parse(text);
                   if (value) target = std::move(*value);
                   return value.has_value();
                 },
                 [&target, initial, codec]() -> std::optional<std::string> {
                   if (target == initial) return std::nullopt;
                   return codec.format(target);
                 }});
  }

  /// A flag that takes one name from `names`.
  template <typename E>
  Flags& choice(std::string name, E& target, std::type_identity_t<NameTable<E>> names,
                std::string help) {
    const Names<E> codec{names};
    return add(std::move(name), codec.list(), target, std::move(help), codec);
  }

  /// A flag without a value: its presence stores `when_set` in `target`.
  template <typename T>
  Flags& toggle(std::string name, T& target, T when_set, std::string help) {
    const T initial = target;
    return push({std::move(name), "", std::move(help), "", "", false,
                 [&target, when_set](std::string_view) {
                   target = when_set;
                   return true;
                 },
                 [&target, initial, when_set]() -> std::optional<std::string> {
                   if (target == initial || !(target == when_set)) return std::nullopt;
                   return std::string();
                 }});
  }

  /// A flag that may repeat; `sink` receives each value in command-line
  /// order. render() does not write it.
  template <typename T>
  Flags& repeated(std::string name, std::string metavar, std::function<void(const T&)> sink,
                  std::string help) {
    return push({std::move(name), std::move(metavar), std::move(help), Text<T>::expected(), "",
                 true,
                 [sink = std::move(sink)](std::string_view text) {
                   auto value = Text<T>::parse(text);
                   if (value) sink(*value);
                   return value.has_value();
                 },
                 nullptr});
  }

  /// The arguments that are not flags, in order.
  Flags& positional(std::string metavar, std::vector<std::string>& target,
                    std::string help);

  /// Parses `args` (without the program name) into the bound variables.
  /// Returns false when --help or -h was given; throws FlagError on a
  /// malformed command line.
  bool parse(std::span<const std::string> args);
  /// parse() for main(): prints the usage and exits 0 on --help; prints
  /// the error and the usage to stderr and exits 2 on a malformed line.
  void parse(int argc, char** argv);

  /// For checks that span flags: prints `TOOL: message` and the usage to
  /// stderr and exits 2.
  [[noreturn]] void fail(std::string_view message) const;

  /// The argv (without the program name) that parses back to the bound
  /// variables: each flag whose value moved off its default.
  std::vector<std::string> render() const;

  void print_usage(std::ostream& os) const;

 private:
  struct Flag {
    std::string name;     ///< "--servers"; empty for the positionals
    std::string metavar;  ///< empty for a toggle
    std::string help;
    std::string expected;
    std::string default_text;
    bool repeatable = false;
    std::function<bool(std::string_view)> set;
    /// The value's text when it moved off its default (a toggle: empty).
    std::function<std::optional<std::string>()> moved;
  };

  Flags& push(Flag flag) {
    flags_.push_back(std::move(flag));
    return *this;
  }

  std::string tool_;
  std::vector<Flag> flags_;
  std::optional<Flag> positional_;
};

}  // namespace marp::util
