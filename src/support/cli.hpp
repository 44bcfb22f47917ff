// Argument parsing shared by the command-line front ends (compose,
// peppher-lint, peppher-predict, peppher-perf).
#pragma once

#include <string>
#include <string_view>

namespace peppher::cli {

/// Matches `arg` against the switch `key` written "-key" or "--key",
/// optionally followed by "=value". Stores the value (empty for a bare
/// switch) and returns true on a match; returns false otherwise, including
/// for a longer key that merely starts with `key`.
bool match_switch(std::string_view arg, std::string_view key,
                  std::string* value);

}  // namespace peppher::cli
