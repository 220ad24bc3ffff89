// Documentation honesty checks (the docs/ tree is part of the contract):
//   - every relative markdown link in README.md and docs/*.md resolves to a
//     real file in the repo,
//   - docs/run_spec.md documents every RunSpec key (run_spec_keys() is the
//     machine-readable index of the grammar) and no key the grammar lacks,
//   - run_spec_keys() itself stays in lockstep with RunSpec::to_string(),
//   - the docs the error messages point at actually exist.
//
// The source tree location comes from the GLOVA_SOURCE_DIR compile
// definition (set in CMakeLists.txt), so the checks run from any build dir.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_spec.hpp"

namespace glova {
namespace {

namespace fs = std::filesystem;

fs::path source_dir() { return fs::path(GLOVA_SOURCE_DIR); }

std::string read_file(const fs::path& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// All markdown documents that form the public doc surface.
std::vector<fs::path> doc_files() {
  std::vector<fs::path> out = {source_dir() / "README.md"};
  for (const auto& entry : fs::directory_iterator(source_dir() / "docs")) {
    if (entry.path().extension() == ".md") out.push_back(entry.path());
  }
  return out;
}

/// Extract every inline markdown link target: the (...) after a ](.
std::vector<std::string> link_targets(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = text.find("](", pos)) != std::string::npos) {
    const std::size_t start = pos + 2;
    const std::size_t end = text.find(')', start);
    if (end == std::string::npos) break;
    out.push_back(text.substr(start, end - start));
    pos = end + 1;
  }
  return out;
}

TEST(Docs, TreeExists) {
  EXPECT_TRUE(fs::exists(source_dir() / "docs" / "architecture.md"));
  EXPECT_TRUE(fs::exists(source_dir() / "docs" / "run_spec.md"));
  EXPECT_TRUE(fs::exists(source_dir() / "docs" / "reproduce_table2.md"));
}

TEST(Docs, InternalLinksResolve) {
  for (const fs::path& doc : doc_files()) {
    const std::string text = read_file(doc);
    for (const std::string& raw : link_targets(text)) {
      if (raw.empty() || raw.front() == '#') continue;  // intra-doc anchor
      if (raw.rfind("http://", 0) == 0 || raw.rfind("https://", 0) == 0 ||
          raw.rfind("mailto:", 0) == 0) {
        continue;  // external; not checked offline
      }
      // Strip an anchor suffix: docs/foo.md#section -> docs/foo.md.
      std::string target = raw.substr(0, raw.find('#'));
      if (target.empty()) continue;
      const fs::path resolved = doc.parent_path() / target;
      EXPECT_TRUE(fs::exists(resolved))
          << doc.filename() << " links to missing target '" << raw << "'";
    }
  }
}

TEST(Docs, RunSpecDocCoversEveryKey) {
  const std::string doc = read_file(source_dir() / "docs" / "run_spec.md");
  for (const std::string_view key : core::run_spec_keys()) {
    // Keys are documented in backticks so prose mentions don't mask a
    // missing grammar row.
    const std::string needle = "`" + std::string(key) + "`";
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/run_spec.md does not document RunSpec key '" << key << "'";
  }
}

TEST(Docs, RunSpecDocumentsOnlyLiveKeys) {
  // The reverse direction: every row of a `| key | type | ...` table names
  // a key the grammar still accepts, so a removed key cannot linger.
  const auto& keys = core::run_spec_keys();
  std::istringstream doc(read_file(source_dir() / "docs" / "run_spec.md"));
  std::string line;
  bool in_key_table = false;
  while (std::getline(doc, line)) {
    if (line.rfind("| key |", 0) == 0) {
      in_key_table = true;
      continue;
    }
    if (line.rfind('|', 0) != 0) in_key_table = false;
    if (!in_key_table || line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    const std::string key = line.substr(3, end - 3);
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), key) != keys.end())
        << "docs/run_spec.md documents '" << key << "', which is not a RunSpec key";
  }
}

TEST(Docs, RunSpecKeysMatchTheCanonicalEmission) {
  // run_spec_keys() is only honest if it matches what to_string() emits —
  // key-for-key, in order.
  const std::string text = core::RunSpec{}.to_string();
  std::vector<std::string> emitted;
  std::istringstream ss(text);
  std::string token;
  while (ss >> token) {
    const std::size_t eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    emitted.push_back(token.substr(0, eq));
  }
  const auto& keys = core::run_spec_keys();
  ASSERT_EQ(emitted.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(emitted[i], keys[i]) << "key order mismatch at index " << i;
  }
}

TEST(Docs, ErrorMessagesPointAtAnExistingDoc) {
  // RunSpec validation errors and the registry error both reference
  // docs/run_spec.md; the file must exist for the pointer to be useful.
  try {
    (void)core::RunSpec::from_string("no_such_key=1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("docs/run_spec.md"), std::string::npos) << what;
  }
  EXPECT_TRUE(fs::exists(source_dir() / "docs" / "run_spec.md"));
}

}  // namespace
}  // namespace glova
