// Documentation honesty checks (the docs/ tree is part of the contract):
//   - every relative markdown link in README.md and docs/*.md resolves to a
//     real file in the repo, and its #anchor (if any) to a heading there,
//   - docs/run_spec.md documents every RunSpec key (run_spec_keys() is the
//     machine-readable index of the grammar) and no key the grammar lacks,
//   - run_spec_keys() itself stays in lockstep with RunSpec::to_string(),
//   - the docs the error messages point at actually exist.
//
// The source tree location comes from the GLOVA_SOURCE_DIR compile
// definition (set in CMakeLists.txt), so the checks run from any build dir.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
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

/// A non-ASCII code point GitHub's slugger drops: Latin-1 punctuation and
/// symbols, general punctuation (dashes, ellipsis), arrows and math operators.
bool is_dropped_symbol(char32_t cp) {
  return (cp >= 0xA0 && cp <= 0xBF) || cp == 0xD7 || cp == 0xF7 ||
         (cp >= 0x2000 && cp <= 0x206F) || (cp >= 0x2190 && cp <= 0x22FF);
}

/// GitHub's anchor for a heading: lower-case, punctuation dropped, spaces
/// become '-'.  Letters outside ASCII (μ, σ) are kept as written.
std::string heading_slug(const std::string& heading) {
  std::string slug;
  for (std::size_t i = 0; i < heading.size();) {
    const auto c = static_cast<unsigned char>(heading[i]);
    if (c < 0x80) {
      if (std::isalnum(c) || c == '-' || c == '_') {
        slug += static_cast<char>(std::tolower(c));
      } else if (c == ' ') {
        slug += '-';
      }
      ++i;
      continue;
    }
    const std::size_t len = c >= 0xF0 ? 4 : c >= 0xE0 ? 3 : 2;
    char32_t cp = c & (len == 2 ? 0x1F : len == 3 ? 0x0F : 0x07);
    for (std::size_t k = 1; k < len && i + k < heading.size(); ++k) {
      cp = (cp << 6) | (static_cast<unsigned char>(heading[i + k]) & 0x3F);
    }
    if (!is_dropped_symbol(cp)) slug += heading.substr(i, len);
    i += len;
  }
  return slug;
}

/// Every heading anchor of a markdown document (headings inside fenced code
/// blocks are not headings; a repeated slug gets GitHub's -1, -2 suffix).
std::set<std::string> heading_anchors(const std::string& text) {
  std::set<std::string> out;
  std::map<std::string, int> seen;
  std::istringstream is(text);
  std::string line;
  bool fenced = false;
  while (std::getline(is, line)) {
    if (line.rfind("```", 0) == 0) fenced = !fenced;
    if (fenced || line.empty() || line.front() != '#') continue;
    const std::size_t hashes = line.find_first_not_of('#');
    if (hashes == std::string::npos || hashes > 6 || line[hashes] != ' ') continue;
    const std::string slug = heading_slug(line.substr(hashes + 1));
    const int n = seen[slug]++;
    out.insert(n == 0 ? slug : slug + "-" + std::to_string(n));
  }
  return out;
}

TEST(Docs, HeadingSlugsFollowGitHub) {
  EXPECT_EQ(heading_slug("Checkpoint / resume"), "checkpoint--resume");
  EXPECT_EQ(heading_slug("SPICE hot path: stamp plans and DC warm-starts"),
            "spice-hot-path-stamp-plans-and-dc-warm-starts");
  EXPECT_EQ(heading_slug("Control plane: RunSpec \u2192 Optimizer"),
            "control-plane-runspec--optimizer");
  EXPECT_EQ(heading_slug("`glova-serve` and μ-σ"), "glova-serve-and-μ-σ");
  EXPECT_EQ(heading_anchors("# A\n```\n# not a heading\n```\n## A\n"),
            (std::set<std::string>{"a", "a-1"}));
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
      if (raw.empty()) continue;
      if (raw.rfind("http://", 0) == 0 || raw.rfind("https://", 0) == 0 ||
          raw.rfind("mailto:", 0) == 0) {
        continue;  // external; not checked offline
      }
      // docs/foo.md#section -> file docs/foo.md, anchor "section"; a bare
      // #section points into this document.
      const std::size_t hash = raw.find('#');
      const std::string target = raw.substr(0, hash);
      const fs::path resolved = target.empty() ? doc : doc.parent_path() / target;
      if (!fs::exists(resolved)) {
        ADD_FAILURE() << doc.filename() << " links to missing target '" << raw << "'";
        continue;
      }
      if (hash == std::string::npos) continue;
      const std::string anchor = raw.substr(hash + 1);
      EXPECT_TRUE(resolved.extension() == ".md" &&
                  heading_anchors(read_file(resolved)).count(anchor) == 1)
          << doc.filename() << " links to '" << raw << "', but no heading of "
          << resolved.filename() << " has the anchor '" << anchor << "'";
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
