// Randomised round-trip and mutation fuzzing for the spec JSON layer.
//
// Three deterministic loops (seeded sim::Rng, no wall clock):
//   * round-trip: random document trees must survive dump() → parse() with
//     value AND kind equality, and canonical() must be a fixed point;
//   * mutation: corrupted serialisations must either parse or throw
//     spec::Error — never crash, never throw anything else;
//   * codec mutation: one leaf of a committed campaign or torture spec, or
//     of a checkpoint line, gets a random kind, value or key name; the codec
//     must then load it or throw spec::Error naming the offending key.
//
// Iteration count comes from $POFI_FUZZ_ITERS (default 200 per loop, kept
// small for ctest); scripts/check.sh runs a longer soak.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "spec/campaign.hpp"
#include "spec/checkpoint.hpp"
#include "spec/value.hpp"
#include "torture/torture_spec.hpp"

namespace pofi::spec {
namespace {

int fuzz_iters() {
  const char* env = std::getenv("POFI_FUZZ_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 200;
}

std::string random_string(sim::Rng& rng) {
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      " _.-/\\\"\n\t{}[]:,";
  std::string s;
  const auto len = rng.below(12);
  for (std::uint64_t i = 0; i < len; ++i) {
    s += alphabet[rng.below(sizeof alphabet - 1)];
  }
  return s;
}

Value random_value(sim::Rng& rng, int depth) {
  // Containers get rarer with depth so trees stay small and terminate.
  const std::uint64_t pick = rng.below(depth <= 0 ? 6 : 8);
  switch (pick) {
    case 0: return Value(nullptr);
    case 1: return Value(rng.chance(0.5));
    case 2: return Value(rng.next());  // full uint64 range
    case 3: return Value(-static_cast<std::int64_t>(rng.below(1ULL << 62)) - 1);
    case 4: {
      // Finite doubles only: NaN breaks operator== by design, inf has no
      // JSON form. Mix integral-valued doubles in to exercise the ".0" path.
      const double d = rng.chance(0.3)
                           ? static_cast<double>(rng.below(1'000'000))
                           : (rng.uniform() - 0.5) * 1e12;
      return Value(d);
    }
    case 5: return Value(random_string(rng));
    case 6: {
      Value arr = Value::array();
      const auto n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        arr.push_back(random_value(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Value obj = Value::object();
      const auto n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        // set() deduplicates, so colliding random keys stay legal.
        obj.set("k" + std::to_string(rng.below(16)), random_value(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST(SpecFuzz, RandomDocumentsRoundTripThroughDumpAndCanonical) {
  const int iters = fuzz_iters();
  sim::Rng rng(0xF022F022ULL);
  for (int i = 0; i < iters; ++i) {
    SCOPED_TRACE(i);
    const Value doc = random_value(rng, 4);
    const Value re = parse(dump(doc));
    ASSERT_TRUE(re == doc) << dump(doc);

    const std::string c = canonical(doc);
    ASSERT_EQ(canonical(parse(c)), c) << dump(doc);
    ASSERT_EQ(content_hash(re), content_hash(doc));
  }
}

TEST(SpecFuzz, MutatedDocumentsNeverCrashTheParser) {
  const int iters = fuzz_iters();
  sim::Rng rng(0xBADC0FFEEULL);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < iters; ++i) {
    SCOPED_TRACE(i);
    std::string text = dump(random_value(rng, 3));

    // 1-4 random mutations: overwrite, insert, or truncate.
    const auto mutations = 1 + rng.below(4);
    for (std::uint64_t m = 0; m < mutations && !text.empty(); ++m) {
      const auto pos = rng.below(text.size());
      switch (rng.below(3)) {
        case 0: text[pos] = static_cast<char>(rng.below(127) + 1); break;
        case 1: text.insert(pos, 1, static_cast<char>(rng.below(94) + 33)); break;
        default: text.resize(pos); break;
      }
    }

    try {
      (void)parse(text);
      ++parsed;
    } catch (const Error& e) {
      // The error contract holds even for garbage: a position and a message.
      ASSERT_GE(e.line(), 0);
      ASSERT_FALSE(std::string(e.what()).empty());
      ++rejected;
    }
    // Anything else (std::bad_alloc, segfault, std::logic_error) fails the
    // test by escaping the harness.
  }
  // Sanity: the mutator must actually exercise both outcomes.
  EXPECT_GT(parsed + rejected, 0);
  EXPECT_GT(rejected, 0);
}

enum class DocKind { kCampaign, kTorture, kCheckpoint };

struct FuzzDoc {
  std::string name;
  DocKind kind;
  Value doc;
};

/// Every committed spec that loads as a campaign or a torture document (the
/// params docs of the manual examples load as neither), plus one checkpoint
/// line that carries every optional result key.
std::vector<FuzzDoc> codec_corpus() {
  std::vector<FuzzDoc> out;
  const char* env = std::getenv("POFI_SPEC_DIR");
  for (const auto& e : std::filesystem::directory_iterator(env != nullptr ? env : POFI_SPEC_DIR)) {
    if (e.path().extension() != ".json") continue;
    Value doc = parse_file(e.path().string());
    const std::string name = e.path().filename().string();
    try {
      (void)load_campaign(doc);
      out.push_back({name, DocKind::kCampaign, std::move(doc)});
      continue;
    } catch (const Error&) {
    }
    try {
      (void)torture::load_torture(doc);
      out.push_back({name, DocKind::kTorture, std::move(doc)});
    } catch (const Error&) {
    }
  }
  CheckpointRecord rec;
  rec.spec_hash = 0x0123456789ABCDEFULL;
  rec.label = "unit-1";
  rec.status = runner::CampaignStatus::kRetriedOk;
  rec.result.audit_violations = 1;
  rec.result.metrics.counters = {{"ssd.cache.dirty_lost", 3}};
  platform::FailureRecord f;
  f.type = platform::FailureType::kFwa;
  rec.result.failures = {f, f};
  out.push_back({"checkpoint line", DocKind::kCheckpoint, parse(canonical(to_json(rec)))});
  return out;
}

struct Leaf {
  Value* value;
  std::string* key;  ///< the member key holding it; null for array items
};

void collect_leaves(Value& v, std::string* key, std::vector<Leaf>& out) {
  if (v.is_object()) {
    for (auto& [k, m] : v.members()) collect_leaves(m, &k, out);
  } else if (v.is_array()) {
    for (Value& item : v.items()) collect_leaves(item, nullptr, out);
  } else {
    out.push_back({&v, key});
  }
}

/// Same kind, new value; small integers half the time so ranges are probed
/// from both sides.
Value perturb(const Value& v, sim::Rng& rng) {
  switch (v.kind()) {
    case Value::Kind::kBool: return Value(!v.as_bool());
    case Value::Kind::kUInt:
      return Value(rng.chance(0.5) ? rng.below(64) : rng.next());
    case Value::Kind::kDouble: return Value((rng.uniform() - 0.5) * 1e3);
    case Value::Kind::kString: return Value(random_string(rng));
    default: return random_value(rng, 1);
  }
}

TEST(SpecFuzz, MutatedSpecLeavesLoadOrNameTheKey) {
  const std::vector<FuzzDoc> corpus = codec_corpus();
  std::size_t kinds[3] = {0, 0, 0};
  for (const FuzzDoc& d : corpus) ++kinds[static_cast<int>(d.kind)];
  ASSERT_GT(kinds[static_cast<int>(DocKind::kCampaign)], 0u);
  ASSERT_GT(kinds[static_cast<int>(DocKind::kTorture)], 0u);

  const int iters = fuzz_iters();
  sim::Rng rng(0xC0DEC0DEULL);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < iters; ++i) {
    const FuzzDoc& source = corpus[static_cast<std::size_t>(i) % corpus.size()];
    SCOPED_TRACE(source.name + " #" + std::to_string(i));
    Value doc = source.doc;
    std::vector<Leaf> leaves;
    collect_leaves(doc, nullptr, leaves);
    ASSERT_FALSE(leaves.empty());
    const Leaf leaf = leaves[rng.below(leaves.size())];
    switch (rng.below(3)) {
      case 0: *leaf.value = random_value(rng, 1); break;
      case 1: *leaf.value = perturb(*leaf.value, rng); break;
      default:
        if (leaf.key != nullptr) {
          *leaf.key = "k" + random_string(rng);  // non-empty, so it can be named
        } else {
          *leaf.value = random_value(rng, 1);
        }
        break;
    }

    try {
      switch (source.kind) {
        case DocKind::kCampaign: (void)load_campaign(doc); break;
        case DocKind::kTorture: (void)torture::load_torture(doc); break;
        case DocKind::kCheckpoint: (void)checkpoint_record_from_json(doc); break;
      }
      ++loaded;
    } catch (const Error& e) {
      ASSERT_FALSE(e.where().empty()) << e.what() << "\n" << dump(doc);
      ++rejected;
    }
    // Any other exception escapes the harness and fails the test.
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace pofi::spec
