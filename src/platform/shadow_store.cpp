#include "platform/shadow_store.hpp"

namespace pofi::platform {

namespace {

constexpr std::uint64_t bit_of(ftl::Lpn lpn) { return std::uint64_t{1} << (lpn % 64); }

}  // namespace

std::vector<std::uint64_t> ShadowStore::allocate_tags(std::uint32_t n) {
  std::vector<std::uint64_t> tags;
  tags.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) tags.push_back(state_.next_tag++);
  return tags;
}

std::uint64_t ShadowStore::expected(ftl::Lpn lpn) const {
  const Chunk* c = state_.pages.find(lpn);
  return c == nullptr ? nand::kErasedContent : c->expected[Pages::offset(lpn)];
}

bool ShadowStore::acceptable(ftl::Lpn lpn, std::uint64_t tag) const {
  const Chunk* c = state_.pages.find(lpn);
  if (c == nullptr) return tag == nand::kErasedContent;
  if (tag == c->expected[Pages::offset(lpn)]) return true;
  return (c->indeterminate & bit_of(lpn)) != 0 && state_.alternates.at(lpn) == tag;
}

ShadowStore::Chunk& ShadowStore::track(ftl::Lpn lpn) {
  Chunk& c = state_.pages.touch(lpn);
  if ((c.tracked & bit_of(lpn)) == 0) {
    c.tracked |= bit_of(lpn);
    ++state_.tracked;
  }
  return c;
}

void ShadowStore::settle(Chunk& c, ftl::Lpn lpn) {
  if ((c.indeterminate & bit_of(lpn)) == 0) return;
  c.indeterminate &= ~bit_of(lpn);
  state_.alternates.erase(lpn);
}

void ShadowStore::commit_write(ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  for (std::size_t i = 0; i < tags.size(); ++i) {
    Chunk& c = track(lpn + i);
    c.expected[Pages::offset(lpn + i)] = tags[i];
    settle(c, lpn + i);
  }
}

void ShadowStore::mark_indeterminate(ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  for (std::size_t i = 0; i < tags.size(); ++i) {
    Chunk& c = track(lpn + i);
    c.indeterminate |= bit_of(lpn + i);
    state_.alternates[lpn + i] = tags[i];
  }
}

void ShadowStore::observe(ftl::Lpn lpn, std::uint64_t tag) {
  Chunk& c = track(lpn);
  c.expected[Pages::offset(lpn)] = tag;
  settle(c, lpn);
}

}  // namespace pofi::platform
