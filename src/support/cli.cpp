#include "support/cli.hpp"

#include "support/strings.hpp"

namespace peppher::cli {

bool match_switch(std::string_view arg, std::string_view key,
                  std::string* value) {
  if (!strings::starts_with(arg, "-")) return false;
  arg.remove_prefix(1);
  if (strings::starts_with(arg, "-")) arg.remove_prefix(1);
  if (!strings::starts_with(arg, key)) return false;
  arg.remove_prefix(key.size());
  if (arg.empty()) {
    value->clear();
    return true;
  }
  if (arg.front() != '=') return false;
  *value = std::string(arg.substr(1));
  return true;
}

}  // namespace peppher::cli
