// Tests for the support substrate: strings, RNG, filesystem helpers,
// error types and the fork-join team.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

#include "temp_dir.hpp"

namespace peppher {
namespace {

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(strings::trim("  hello \t\n"), "hello");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
  EXPECT_EQ(strings::trim("x"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = strings::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = strings::split_whitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(strings::join(parts, "::"), "x::y::z");
  EXPECT_EQ(strings::join({}, ","), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(strings::starts_with("peppher.h", "pep"));
  EXPECT_FALSE(strings::starts_with("pe", "pep"));
  EXPECT_TRUE(strings::ends_with("main.xml", ".xml"));
  EXPECT_FALSE(strings::ends_with("xml", ".xml"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(strings::replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(strings::replace_all("abc", "x", "y"), "abc");
  EXPECT_EQ(strings::replace_all("", "a", "b"), "");
}

TEST(Strings, ToIntRejectsTrailingGarbage) {
  EXPECT_EQ(strings::to_int("42").value(), 42);
  EXPECT_EQ(strings::to_int("  -7 ").value(), -7);
  EXPECT_FALSE(strings::to_int("42x").has_value());
  EXPECT_FALSE(strings::to_int("").has_value());
}

TEST(Strings, ToDouble) {
  EXPECT_DOUBLE_EQ(strings::to_double("2.5").value(), 2.5);
  EXPECT_FALSE(strings::to_double("2.5.1").has_value());
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(strings::is_identifier("_x9"));
  EXPECT_FALSE(strings::is_identifier("9x"));
  EXPECT_FALSE(strings::is_identifier(""));
  EXPECT_FALSE(strings::is_identifier("a-b"));
}

TEST(Strings, IndentSkipsEmptyLines) {
  EXPECT_EQ(strings::indent("a\n\nb", 2), "  a\n\n  b");
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // law of large numbers
}

TEST(Rng, NormalRoughlyCentred) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / 10000.0, 5.0, 0.1);
}

// ---------------------------------------------------------------------------
// fs
// ---------------------------------------------------------------------------

TEST(Fs, WriteReadRoundTrip) {
  const auto dir = peppher::testing::unique_temp_dir("peppher_fs_test");
  const auto file = dir / "sub" / "data.txt";
  fs::write_file(file, "hello\nworld");
  EXPECT_EQ(fs::read_file(file), "hello\nworld");
  std::filesystem::remove_all(dir);
}

TEST(Fs, WritePublishesANewFileInsteadOfTruncating) {
  // A hard link to the old file keeps its content: the second write
  // renamed a new inode over the name rather than truncating the old one,
  // so a run killed mid-write cannot leave a torn file behind.
  const auto dir = peppher::testing::unique_temp_dir("peppher_fs_test");
  const auto file = dir / "model.model";
  fs::write_file(file, "old");
  std::filesystem::create_hard_link(file, dir / "old.link");
  fs::write_file(file, "new");
  EXPECT_EQ(fs::read_file(file), "new");
  EXPECT_EQ(fs::read_file(dir / "old.link"), "old");
  EXPECT_EQ(std::filesystem::hard_link_count(file), 1u);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            2);
  std::filesystem::remove_all(dir);
}

TEST(Fs, FailedPublishThrowsALocatedErrorAndLeavesNoTemporary) {
  // A non-empty directory where the file should go: the rename fails. The
  // error names the target, and only the directory is left.
  const auto dir = peppher::testing::unique_temp_dir("peppher_fs_test");
  const auto target = dir / "blocked.model";
  fs::write_file(target / "inside", "x");
  try {
    fs::write_file(target, "content");
    ADD_FAILURE() << "writing over a directory succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find(target.string()), std::string::npos)
        << e.what();
  }
  std::vector<std::filesystem::path> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path());
  }
  EXPECT_EQ(left, std::vector<std::filesystem::path>{target});
  std::filesystem::remove_all(dir);
}

TEST(Fs, ReadMissingFileThrows) {
  EXPECT_THROW(fs::read_file("/definitely/not/here.txt"), Error);
}

TEST(Fs, ListFilesFiltersAndSorts) {
  const auto dir = peppher::testing::unique_temp_dir("peppher_ls_test");
  fs::write_file(dir / "b.xml", "x");
  fs::write_file(dir / "a.xml", "x");
  fs::write_file(dir / "c.txt", "x");
  const auto xmls = fs::list_files(dir, ".xml");
  ASSERT_EQ(xmls.size(), 2u);
  EXPECT_EQ(xmls[0].filename(), "a.xml");
  EXPECT_EQ(xmls[1].filename(), "b.xml");
  EXPECT_EQ(fs::list_files(dir).size(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(Fs, CountSourceLinesIgnoresBlanks) {
  const auto dir = peppher::testing::unique_temp_dir("peppher_loc_test");
  fs::write_file(dir / "f.cpp", "int x;\n\n  \nint y;\n");
  EXPECT_EQ(fs::count_source_lines(dir / "f.cpp"), 2u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// error
// ---------------------------------------------------------------------------

TEST(ErrorType, CarriesCodeAndMessage) {
  const Error e(ErrorCode::kNotFound, "widget");
  EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  EXPECT_NE(std::string(e.what()).find("widget"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("not_found"), std::string::npos);
}

TEST(ErrorType, CheckThrowsOnFalse) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "boom"), Error);
}

// ---------------------------------------------------------------------------
// ForkJoinTeam
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ForkJoinTeam team(4);
  std::vector<int> hits(1000, 0);
  team.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ForkJoinTeam team(4);
  int calls = 0;
  team.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  team.parallel_for(5, 6, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 5u);
    EXPECT_EQ(e, 6u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MoreThreadsThanItems) {
  ForkJoinTeam team(16);
  std::vector<int> hits(3, 0);
  team.parallel_for(0, 3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ForkJoinTeam, SplitIsContiguousWithLargerChunksFirst) {
  EXPECT_EQ(chunk_count(4, 10), 4u);
  EXPECT_EQ(chunk_count(16, 3), 3u);
  EXPECT_EQ(chunk_count(0, 3), 1u);
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 3}, {3, 6}, {6, 8}, {8, 10}};
  for (std::size_t c = 0; c < expected.size(); ++c) {
    const ChunkRange range = chunk_range(10, 4, c);
    EXPECT_EQ(range.begin, expected[c].first) << "chunk " << c;
    EXPECT_EQ(range.end, expected[c].second) << "chunk " << c;
  }

  // A fork hands its body exactly those chunks, offset by the range start.
  ForkJoinTeam team(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  team.parallel_for(100, 110, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.emplace_back(b - 100, e - 100);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, expected);
}

TEST(ForkJoinTeam, TenThousandBackToBackForksCoverTheirRangesOnce) {
  ForkJoinTeam team(4);
  std::vector<std::atomic<int>> hits(80);
  int bad_forks = 0;
  for (int fork = 0; fork < 10'000; ++fork) {
    const std::size_t begin = static_cast<std::size_t>(fork % 5);
    const std::size_t end = begin + 64 + static_cast<std::size_t>(fork % 11);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    team.parallel_for(begin, end, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      const int want = (i >= begin && i < end) ? 1 : 0;
      if (hits[i].load(std::memory_order_relaxed) != want) {
        ++bad_forks;
        break;
      }
    }
  }
  EXPECT_EQ(bad_forks, 0);
}

TEST(ForkJoinTeam, EveryHelperJoinsAForkWhoseChunksWaitForEachOther) {
  // Each chunk waits until all four have started, so the fork completes
  // only if the owner's wake and the helpers' chained wakes bring every
  // helper in.
  ForkJoinTeam team(4);
  for (int fork = 0; fork < 20; ++fork) {
    std::atomic<int> arrived{0};
    std::mutex mutex;
    std::set<std::thread::id> ids;
    team.parallel_for(0, 4, [&](std::size_t, std::size_t) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
      }
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (arrived.load() < 4 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    EXPECT_EQ(arrived.load(), 4) << "fork " << fork;
    EXPECT_EQ(ids.size(), 4u) << "fork " << fork;
  }
}

TEST(ForkJoinTeam, ForksCreateNoThreadOnceStarted) {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no " << tasks;
  const auto thread_count = [&] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto before = thread_count();
  ForkJoinTeam team(4);
  EXPECT_EQ(thread_count(), before);  // the constructor starts nothing
  std::atomic<std::size_t> covered{0};
  const auto count = [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b, std::memory_order_relaxed);
  };
  team.parallel_for(0, 64, count);
  // At least the three helpers (a sanitizer runtime may add its own).
  const auto started = thread_count();
  EXPECT_GE(started, before + 3);
  for (int fork = 0; fork < 1000; ++fork) team.parallel_for(0, 64, count);
  EXPECT_EQ(thread_count(), started);
  EXPECT_EQ(covered.load(), 1001u * 64u);
}

TEST(ForkJoinTeam, ChunkExceptionRethrowsAfterEveryClaimedChunk) {
  ForkJoinTeam team(4);
  std::vector<std::atomic<int>> hits(64);
  const auto body = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      if (i == 40) throw std::runtime_error("chunk 2 failed");
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  };
  try {
    team.parallel_for(0, 64, body);
    ADD_FAILURE() << "the chunk's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2 failed");
  }
  // Every other chunk ran to completion before the rethrow; the throwing
  // chunk stopped at its faulting index.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const int want = (i >= 40 && i < 48) ? 0 : 1;
    EXPECT_EQ(hits[i].load(), want) << "index " << i;
  }

  // Two throwing chunks: the owner sees exactly one exception.
  EXPECT_THROW(team.parallel_for(0, 64,
                                 [](std::size_t b, std::size_t) {
                                   if (b < 32) throw std::logic_error("low");
                                 }),
               std::logic_error);

  // The team stays usable.
  std::vector<int> after(64, 0);
  team.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) after[i]++;
  });
  for (int h : after) EXPECT_EQ(h, 1);
}

TEST(ForkJoinTeam, DestroysWithParkedOrUnstartedHelpers) {
  { ForkJoinTeam never_forked(4); }
  for (int round = 0; round < 50; ++round) {
    ForkJoinTeam team(4);
    std::atomic<int> sum{0};
    team.parallel_for(0, 4, [&](std::size_t b, std::size_t e) {
      sum.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4);
  }  // helpers may still be waking from the fork when the team is destroyed
}

}  // namespace
}  // namespace peppher
