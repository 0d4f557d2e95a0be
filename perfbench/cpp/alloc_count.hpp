// Process-wide heap allocation count. alloc_count.cpp replaces the global
// operator new family to count calls; alloc_none.cpp is the stub the
// no-count self-test build links instead.
#pragma once

#include <cstdint>

namespace perfbench {

/// Global operator new calls since process start (0 in the no-count build).
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench
