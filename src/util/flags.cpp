#include "util/flags.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

namespace marp::util {

std::optional<double> Text<double>::parse(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::string Text<double>::format(double value) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, ptr);
}

std::optional<sim::SimTime> Text<sim::SimTime>::parse(std::string_view text) {
  constexpr std::uint64_t kMaxMs = std::numeric_limits<std::int64_t>::max() / 1000;
  const auto ms = Text<std::uint64_t>::parse(text);
  if (!ms || *ms > kMaxMs) return std::nullopt;
  return sim::SimTime::micros(static_cast<std::int64_t>(*ms) * 1000);
}

std::string Text<sim::SimTime>::format(sim::SimTime value) {
  return std::to_string(value.as_micros() / 1000);
}

std::optional<NodeEvent> Text<NodeEvent>::parse(std::string_view text) {
  const std::size_t at = text.find('@');
  if (at == std::string_view::npos) return std::nullopt;
  const auto node = Text<std::uint32_t>::parse(text.substr(0, at));
  const auto time = Text<sim::SimTime>::parse(text.substr(at + 1));
  if (!node || !time) return std::nullopt;
  return NodeEvent{*node, *time};
}

std::string Text<NodeEvent>::format(const NodeEvent& value) {
  return std::to_string(value.node) + '@' + Text<sim::SimTime>::format(value.at);
}

Flags& Flags::positional(std::string metavar, std::vector<std::string>& target,
                         std::string help) {
  const auto append = [&target](std::string_view text) {
    target.emplace_back(text);
    return true;
  };
  positional_ = Flag{"", std::move(metavar), std::move(help), "", "", false, append, nullptr};
  return *this;
}

bool Flags::parse(std::span<const std::string> args) {
  std::vector<bool> seen(flags_.size(), false);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") return false;
    if (arg.empty() || arg[0] != '-') {
      if (!positional_) throw FlagError("unexpected argument '" + arg + "'");
      positional_->set(arg);
      continue;
    }
    const auto it = std::find_if(flags_.begin(), flags_.end(),
                                 [&arg](const Flag& flag) { return flag.name == arg; });
    if (it == flags_.end()) throw FlagError(arg + ": unknown flag");
    const std::size_t index = static_cast<std::size_t>(it - flags_.begin());
    if (seen[index] && !it->repeatable) throw FlagError(arg + ": given twice");
    seen[index] = true;
    if (it->metavar.empty()) {
      it->set({});
      continue;
    }
    if (i + 1 == args.size()) {
      throw FlagError(arg + ": expected " + it->expected + ", got nothing");
    }
    const std::string& value = args[++i];
    if (!it->set(value)) {
      throw FlagError(arg + ": expected " + it->expected + ", got '" + value + "'");
    }
  }
  return true;
}

void Flags::parse(int argc, char** argv) {
  const std::vector<std::string> args(argv + std::min(argc, 1), argv + argc);
  try {
    if (parse(args)) return;
  } catch (const FlagError& error) {
    fail(error.what());
  }
  print_usage(std::cout);
  std::exit(0);
}

void Flags::fail(std::string_view message) const {
  std::cerr << tool_ << ": " << message << "\n";
  print_usage(std::cerr);
  std::exit(2);
}

std::vector<std::string> Flags::render() const {
  std::vector<std::string> args;
  for (const Flag& flag : flags_) {
    if (!flag.moved) continue;
    const std::optional<std::string> value = flag.moved();
    if (!value) continue;
    args.push_back(flag.name);
    if (!flag.metavar.empty()) args.push_back(*value);
  }
  return args;
}

void Flags::print_usage(std::ostream& os) const {
  constexpr std::size_t kHelpColumn = 30;
  os << "usage: " << tool_ << " [flags]";
  if (positional_) os << ' ' << positional_->metavar;
  os << "\n";
  const auto line = [&os](const Flag& flag) {
    const std::string left = "  " + flag.name + (flag.name.empty() ? "" : " ") + flag.metavar;
    os << left;
    if (left.size() < kHelpColumn) os << std::string(kHelpColumn - left.size(), ' ');
    else os << "\n" << std::string(kHelpColumn, ' ');
    std::string help = flag.help;
    if (!flag.default_text.empty() && help.find("(default") == std::string::npos) {
      help += " (default " + flag.default_text + ")";
    }
    if (flag.repeatable) help += " (repeatable)";
    for (const char c : help) {
      os << c;
      if (c == '\n') os << std::string(kHelpColumn, ' ');
    }
    os << "\n";
  };
  if (positional_) line(*positional_);
  for (const Flag& flag : flags_) line(flag);
  os << "  --help                      print this usage and exit\n";
}

}  // namespace marp::util
