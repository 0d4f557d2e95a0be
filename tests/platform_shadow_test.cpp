#include "platform/shadow_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

namespace pofi::platform {
namespace {

TEST(ShadowStore, TagsAreUniqueAndNonZero) {
  ShadowStore shadow;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    for (const auto tag : shadow.allocate_tags(16)) {
      EXPECT_NE(tag, 0u);
      EXPECT_NE(tag, nand::kErasedContent);
      EXPECT_TRUE(seen.insert(tag).second);
    }
  }
  EXPECT_EQ(shadow.tags_allocated(), 1600u);
}

TEST(ShadowStore, UnknownPageExpectsErased) {
  ShadowStore shadow;
  EXPECT_EQ(shadow.expected(5), nand::kErasedContent);
  EXPECT_TRUE(shadow.acceptable(5, nand::kErasedContent));
  EXPECT_FALSE(shadow.acceptable(5, 123));
}

TEST(ShadowStore, CommitMakesTagsExpected) {
  ShadowStore shadow;
  const auto tags = shadow.allocate_tags(3);
  shadow.commit_write(10, tags);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(shadow.expected(10 + i), tags[i]);
    EXPECT_TRUE(shadow.acceptable(10 + i, tags[i]));
    EXPECT_FALSE(shadow.acceptable(10 + i, nand::kErasedContent));
  }
  EXPECT_EQ(shadow.tracked_pages(), 3u);
}

TEST(ShadowStore, IndeterminateAcceptsOldAndNew) {
  ShadowStore shadow;
  const auto first = shadow.allocate_tags(1);
  shadow.commit_write(10, first);
  const auto second = shadow.allocate_tags(1);
  shadow.mark_indeterminate(10, second);
  // The unacked write may or may not have reached the media.
  EXPECT_TRUE(shadow.acceptable(10, first[0]));
  EXPECT_TRUE(shadow.acceptable(10, second[0]));
  EXPECT_FALSE(shadow.acceptable(10, 0xDEAD));
  // Expected (for FWA comparisons) is still the committed value.
  EXPECT_EQ(shadow.expected(10), first[0]);
}

TEST(ShadowStore, ObserveCollapsesState) {
  ShadowStore shadow;
  const auto first = shadow.allocate_tags(1);
  shadow.commit_write(10, first);
  const auto second = shadow.allocate_tags(1);
  shadow.mark_indeterminate(10, second);
  shadow.observe(10, second[0]);  // verification saw the new data
  EXPECT_EQ(shadow.expected(10), second[0]);
  EXPECT_TRUE(shadow.acceptable(10, second[0]));
  EXPECT_FALSE(shadow.acceptable(10, first[0]));
}

TEST(ShadowStore, CommitClearsIndeterminate) {
  ShadowStore shadow;
  const auto loose = shadow.allocate_tags(1);
  shadow.mark_indeterminate(10, loose);
  const auto committed = shadow.allocate_tags(1);
  shadow.commit_write(10, committed);
  EXPECT_FALSE(shadow.acceptable(10, loose[0]));
  EXPECT_TRUE(shadow.acceptable(10, committed[0]));
}

TEST(ShadowStore, MultiPageCommitIndexesCorrectly) {
  ShadowStore shadow;
  const auto tags = shadow.allocate_tags(4);
  shadow.commit_write(100, tags);
  EXPECT_EQ(shadow.expected(100), tags[0]);
  EXPECT_EQ(shadow.expected(103), tags[3]);
  EXPECT_EQ(shadow.expected(104), nand::kErasedContent);
}

// LPN of the last page of a 128 GB drive: its own chunk, far past the rest.
constexpr ftl::Lpn kFar = 33'554'431;

using Visit = std::tuple<ftl::Lpn, std::uint64_t, bool>;

std::vector<Visit> visits(const ShadowStore& shadow) {
  std::vector<Visit> out;
  shadow.for_each([&out](ftl::Lpn lpn, std::uint64_t expected, bool indeterminate) {
    out.emplace_back(lpn, expected, indeterminate);
  });
  return out;
}

TEST(ShadowStore, ChunkBoundariesAndFarPages) {
  ShadowStore shadow;
  // A write straddling a chunk boundary (512 = 8 * 64), and a far page.
  const auto tags = shadow.allocate_tags(3);
  shadow.commit_write(511, tags);
  const auto far = shadow.allocate_tags(1);
  shadow.commit_write(kFar, far);
  EXPECT_EQ(shadow.expected(511), tags[0]);
  EXPECT_EQ(shadow.expected(512), tags[1]);
  EXPECT_EQ(shadow.expected(513), tags[2]);
  EXPECT_EQ(shadow.expected(kFar), far[0]);
  // Untouched neighbours, in touched and untouched chunks, read as erased.
  for (const ftl::Lpn lpn : {ftl::Lpn{0}, ftl::Lpn{510}, ftl::Lpn{514}, ftl::Lpn{1024},
                             kFar - 1, kFar + 1, kFar * 4}) {
    EXPECT_EQ(shadow.expected(lpn), nand::kErasedContent) << lpn;
    EXPECT_TRUE(shadow.acceptable(lpn, nand::kErasedContent)) << lpn;
    EXPECT_FALSE(shadow.acceptable(lpn, tags[0])) << lpn;
  }
  EXPECT_TRUE(shadow.acceptable(512, tags[1]));
  EXPECT_FALSE(shadow.acceptable(512, tags[0]));
  EXPECT_EQ(shadow.tracked_pages(), 4u);
}

TEST(ShadowStore, ForEachVisitsAscendingWithIndeterminateFlag) {
  ShadowStore shadow;
  // Touch pages out of order, across chunks, in every way a page gets tracked.
  const auto a = shadow.allocate_tags(2);
  shadow.commit_write(kFar - 1, a);                 // kFar-1, kFar
  const auto b = shadow.allocate_tags(1);
  shadow.mark_indeterminate(513, b);                // never committed
  const auto c = shadow.allocate_tags(2);
  shadow.commit_write(511, c);                      // 511, 512
  const auto d = shadow.allocate_tags(1);
  shadow.mark_indeterminate(kFar, d);               // committed, then unacked
  shadow.observe(7, 0xBAD);                         // garbage seen on disk
  shadow.observe(1000, nand::kErasedContent);       // erased seen on disk

  const std::vector<Visit> expect = {
      {7, 0xBAD, false},
      {511, c[0], false},
      {512, c[1], false},
      {513, nand::kErasedContent, true},
      {1000, nand::kErasedContent, false},
      {kFar - 1, a[0], false},
      {kFar, a[1], true},
  };
  EXPECT_EQ(visits(shadow), expect);
  EXPECT_TRUE(std::is_sorted(expect.begin(), expect.end()));
  EXPECT_TRUE(shadow.acceptable(kFar, d[0]));
  EXPECT_TRUE(shadow.acceptable(513, b[0]));
  EXPECT_TRUE(shadow.acceptable(513, nand::kErasedContent));
}

TEST(ShadowStore, TrackedPagesCountsEachTouchedPageOnce) {
  ShadowStore shadow;
  EXPECT_EQ(shadow.tracked_pages(), 0u);
  const auto t = shadow.allocate_tags(4);
  shadow.commit_write(510, t);  // 510..513
  EXPECT_EQ(shadow.tracked_pages(), 4u);
  shadow.commit_write(511, std::span(t).first(2));  // recommit: no new pages
  EXPECT_EQ(shadow.tracked_pages(), 4u);
  shadow.mark_indeterminate(513, std::span(t).first(2));  // 514 is new
  EXPECT_EQ(shadow.tracked_pages(), 5u);
  shadow.observe(514, t[0]);  // collapses, stays tracked
  shadow.observe(9, nand::kErasedContent);  // observing a new page tracks it
  EXPECT_EQ(shadow.tracked_pages(), 6u);
  EXPECT_EQ(visits(shadow).size(), shadow.tracked_pages());
  // Reads never track.
  (void)shadow.expected(20'000);
  (void)shadow.acceptable(kFar, 1);
  EXPECT_EQ(shadow.tracked_pages(), 6u);
  shadow.reset();
  EXPECT_EQ(shadow.tracked_pages(), 0u);
  EXPECT_TRUE(visits(shadow).empty());
  EXPECT_EQ(shadow.expected(510), nand::kErasedContent);
}

TEST(ShadowStore, SnapshotRestoreRoundTrip) {
  ShadowStore shadow;
  const auto t = shadow.allocate_tags(4);
  shadow.commit_write(510, t);
  const auto loose = shadow.allocate_tags(1);
  shadow.mark_indeterminate(512, loose);

  ShadowStore::StateImage image;
  shadow.snapshot(image);
  const std::vector<Visit> before = visits(shadow);
  const std::size_t tracked = shadow.tracked_pages();
  const std::uint64_t allocated = shadow.tags_allocated();

  // Diverge in every part of the state: new chunk, collapsed and new
  // indeterminate pages, more tags.
  const auto more = shadow.allocate_tags(2);
  shadow.commit_write(kFar - 1, more);
  shadow.observe(512, loose[0]);
  shadow.mark_indeterminate(510, std::span(more).first(1));

  shadow.restore(image);
  EXPECT_EQ(visits(shadow), before);
  EXPECT_EQ(shadow.tracked_pages(), tracked);
  EXPECT_EQ(shadow.tags_allocated(), allocated);
  EXPECT_EQ(shadow.expected(kFar - 1), nand::kErasedContent);
  EXPECT_TRUE(shadow.acceptable(512, loose[0]));
  EXPECT_TRUE(shadow.acceptable(512, t[2]));
  EXPECT_FALSE(shadow.acceptable(510, more[0]));
  // Tag allocation resumes where the snapshot left it.
  EXPECT_EQ(shadow.allocate_tags(1)[0], allocated + 1);
}

}  // namespace
}  // namespace pofi::platform
