#include "torture/torture_spec.hpp"

#include "spec/fields.hpp"

namespace pofi::spec {

template <>
struct Fields<torture::TortureConfig> {
  static constexpr const char* kContext = "torture spec";
  static void list(auto& c, auto& f) {
    f.text("name", c.name);
    f.uint("seed", c.seed);
    f.required().nested("drive", c.drive, drive_from_json);
    f.nested("platform", c.platform);
    f.nested("workload", c.workload);
    f.section("torture", "torture section", [&c](auto& t) {
      t.uint("requests", c.requests, 1);
      t.real("pace_iops", c.pace_iops, 1e-3, 1e9);
      t.uint("window_first", c.window_first);
      t.uint("window_count", c.window_count);
      t.uint("stride", c.stride, 1);
      t.uint("shard_points", c.shard_points, 1);
      t.choice("injection", c.injection,
               {torture::Injection::kImmediateCut, torture::Injection::kCommandOff});
      t.flag("break_recovery", c.break_recovery);
      t.flag("shrink", c.shrink);
      // Checkpoint cadence changes wall-clock time, never verdicts, so
      // torture_hash leaves it out.
      t.omit_if(t.hashing).uint("snapshot_interval", c.snapshot_interval, 1);
    });
    // Same convention as campaign specs: the runner section is execution
    // shape (bit-identical results at any thread count), so torture_hash
    // leaves it out and it never invalidates checkpoints.
    f.omit_if(f.hashing).nested("runner", c.runner);
  }
};

}  // namespace pofi::spec

namespace pofi::torture {

using spec::Error;
using spec::Value;

TortureConfig load_torture(const Value& doc) {
  if (!doc.is_object()) throw Error("torture spec must be an object", doc.line, doc.col);
  TortureConfig cfg;
  spec::apply_fields(cfg, doc);
  return cfg;
}

TortureConfig load_torture_file(const std::string& path) {
  return load_torture(spec::parse_file(path));
}

Value to_json(const TortureConfig& cfg) { return spec::write_fields(cfg); }

std::uint64_t torture_hash(const TortureConfig& cfg) {
  return spec::content_hash(spec::write_fields(cfg, /*hashing=*/true));
}

}  // namespace pofi::torture
