#include "support/fs.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::fs {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(ErrorCode::kIoError, "cannot open file for reading: " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw Error(ErrorCode::kIoError, "read failure on: " + path.string());
  }
  return std::move(buffer).str();
}

void write_file(const std::filesystem::path& path, std::string_view content) {
  if (path.has_parent_path()) make_dirs(path.parent_path());
  // A temporary name in the target's directory, unique to this process and
  // call, so concurrent writers of one target never share it.
  static std::atomic<unsigned long> counter{0};
  std::filesystem::path temp = path;
  temp += ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  const auto fail = [&](const std::string& what) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    throw Error(ErrorCode::kIoError, what);
  };
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open file for writing: " + path.string());
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.close();
    if (!out) fail("write failure on: " + path.string());
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) fail("cannot publish " + path.string() + ": " + ec.message());
}

void make_dirs(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw Error(ErrorCode::kIoError,
                "cannot create directory " + path.string() + ": " + ec.message());
  }
}

namespace {
std::vector<std::filesystem::path> collect(const std::filesystem::path& dir,
                                           std::string_view suffix, bool recursive) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return out;
  auto matches = [&](const std::filesystem::directory_entry& entry) {
    return entry.is_regular_file() &&
           (suffix.empty() || strings::ends_with(entry.path().string(), suffix));
  };
  if (recursive) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (matches(entry)) out.push_back(entry.path());
    }
  } else {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (matches(entry)) out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

std::vector<std::filesystem::path> list_files(const std::filesystem::path& dir,
                                              std::string_view suffix) {
  return collect(dir, suffix, /*recursive=*/false);
}

std::vector<std::filesystem::path> list_files_recursive(
    const std::filesystem::path& dir, std::string_view suffix) {
  return collect(dir, suffix, /*recursive=*/true);
}

std::size_t count_source_lines(const std::filesystem::path& path) {
  const std::string text = read_file(path);
  std::size_t lines = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (!strings::trim(std::string_view(text).substr(start, end - start)).empty()) {
      ++lines;
    }
    start = end + 1;
  }
  return lines;
}

}  // namespace peppher::fs
