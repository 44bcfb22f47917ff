// Thin filesystem helpers on top of std::filesystem, throwing peppher::Error
// with readable messages instead of std::filesystem_error.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace peppher::fs {

/// Reads a whole file into a string. Throws Error(kIoError) if unreadable.
std::string read_file(const std::filesystem::path& path);

/// Writes `content` to `path`, creating parent directories as needed. The
/// content goes to a temporary file beside `path` that is then renamed over
/// it, so a reader, or a run killed mid-write, sees the old file or the new
/// one and never a torn one. Throws Error(kIoError) naming the file, with no
/// temporary file left behind.
void write_file(const std::filesystem::path& path, std::string_view content);

/// Creates the directory (and parents); no-op if it exists.
void make_dirs(const std::filesystem::path& path);

/// Lists regular files directly under `dir` whose name ends with `suffix`
/// (pass "" for all), sorted by name for determinism.
std::vector<std::filesystem::path> list_files(const std::filesystem::path& dir,
                                              std::string_view suffix = "");

/// Recursively lists regular files under `dir` with the given suffix, sorted.
std::vector<std::filesystem::path> list_files_recursive(
    const std::filesystem::path& dir, std::string_view suffix = "");

/// Counts physical, non-blank source lines in a file (used by the Table I
/// LoC benchmark, matching the paper's "standard LOC metric").
std::size_t count_source_lines(const std::filesystem::path& path);

}  // namespace peppher::fs
