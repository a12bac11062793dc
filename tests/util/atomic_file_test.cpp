// Crash-safe writes under concurrency: writers of one path never share a
// temp file, so the published file is always exactly one writer's
// content and no temp file outlives its writer; rewriting identical
// content publishes nothing.
#include "util/atomic_file.hpp"

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace afs {
namespace {

namespace fs = std::filesystem;

std::string read_all(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

TEST(AtomicFile, TempNamesAreUniquePerWriter) {
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) names.insert(unique_tmp_path("out/x.csv"));
  EXPECT_EQ(names.size(), 100u);
  for (const std::string& n : names) EXPECT_EQ(n.rfind("out/x.csv.tmp.", 0), 0u);
}

TEST(AtomicFile, ConcurrentWritersOfOnePathPublishOneWholeContent) {
  const fs::path dir = fs::path(::testing::TempDir()) / "afs_atomic_file";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "shared.csv";

  // Eight writers, each with its own large, recognisable content.
  constexpr int kWriters = 8;
  constexpr int kRounds = 50;
  std::vector<std::string> contents;
  for (int w = 0; w < kWriters; ++w)
    contents.push_back(std::string(4096 + 512 * w, static_cast<char>('a' + w)));

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r)
        write_file_atomic(target.string(), contents[static_cast<std::size_t>(w)]);
    });
  for (std::thread& t : threads) t.join();

  const std::string got = read_all(target);
  bool whole = false;
  for (const std::string& c : contents) whole = whole || got == c;
  EXPECT_TRUE(whole) << "published " << got.size()
                     << " bytes that are no single writer's content";
  for (const auto& e : fs::directory_iterator(dir))
    EXPECT_EQ(e.path().filename().string().find(".tmp"), std::string::npos)
        << "leftover temp file " << e.path();
  fs::remove_all(dir);
}

TEST(AtomicFile, IdenticalContentIsLeftInPlace) {
  // Rewriting the bytes a file already holds publishes nothing (no new
  // inode from a rename); different bytes still replace it.
  const fs::path dir = fs::path(::testing::TempDir()) / "afs_atomic_same";
  fs::remove_all(dir);
  const std::string path = (dir / "table.csv").string();
  const auto inode = [&path] {
    struct stat st {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    return st.st_ino;
  };
  write_file_atomic(path, "a,b\n1,2\n");
  const auto first = inode();
  write_file_atomic(path, "a,b\n1,2\n");
  EXPECT_EQ(inode(), first);
  write_file_atomic(path, "a,b\n1,3\n");
  EXPECT_NE(inode(), first);
  EXPECT_EQ(read_all(path), "a,b\n1,3\n");
  write_file_atomic(path, "a,b\n1,3\n1,4\n");  // a longer prefix match
  EXPECT_EQ(read_all(path), "a,b\n1,3\n1,4\n");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace afs
