// Field lists: the one place each codec'd struct names its JSON keys.
//
// A struct T with a codec specialises Fields<T>:
//
//   template <> struct Fields<nand::Geometry> {
//     static constexpr const char* kContext = "nand geometry";  // for errors
//     static void list(auto& g, auto& f) {
//       f.uint("page_size_bytes", g.page_size_bytes, 512);
//       f.uint("planes", g.planes, 1, 64);
//       ...
//     }
//   };
//
// `list` names each key once, beside its member and its constraint, as one
// call on a visitor `f`. Two visitors walk it: FieldWriter appends each field
// to a JSON object (the struct is const); FieldReader finds each field's key
// among a parsed object's members and reads it (the struct is mutable), then
// rejects the first member no field read. write_fields and apply_fields drive
// them, one walk per object; neither allocates per field or per key lookup.
//
// Field kinds (every visitor provides each):
//   flag, text            bool, std::string
//   uint(k, m, lo, hi)    any integer member, read as a JSON unsigned integer
//   real(k, m, lo, hi)    double
//   ms, us                sim::Duration written as double milliseconds or
//                         microseconds (the unit is part of the key name)
//   hash                  content hash written as "fnv1a:<16 hex>"
//   choice(k, m, {...})   enum; the names are the enum's own to_string forms
//   nested(k, m[, read])  a struct with a public codec: written by its
//                         to_json, read by its apply_json (which runs its
//                         cross-field checks) or by `read(value)`
//   list(k, vector)       array of objects whose type has a Fields list
//   section(k, ctx, fn)   JSON object whose keys are members of the same
//                         struct, listed by `fn(visitor)`
// and two prefixes for the next field:
//   omit_if(cond)         the writer leaves the key out when `cond` holds
//   required()            reading throws "<context> has no "<key>"" when the
//                         key is absent
// FieldWriter::hashing is true while a content hash is being computed;
// fields that are execution shape rather than content omit_if(f.hashing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

// nested() calls the public to_json / apply_json overloads: they must be
// declared before the visitors below.
#include "spec/checkpoint.hpp"
#include "spec/codec.hpp"
#include "spec/obs_json.hpp"
#include "spec/value.hpp"

namespace pofi::spec {

template <class T>
struct Fields;

/// Parse one of `names`, matching the enum's to_string forms; the error
/// lists every legal one.
template <class E, std::size_t N>
[[nodiscard]] E read_enum(const Value& v, const std::string& key, const E (&names)[N]) {
  if (!v.is_string()) throw Error("expected a string", v.line, v.col, key);
  for (const E e : names) {
    if (v.as_string() == to_string(e)) return e;
  }
  std::string msg = "expected one of";
  const char* sep = " ";
  for (const E e : names) {
    msg += sep;
    msg += '"';
    msg += to_string(e);
    msg += '"';
    sep = ", ";
  }
  throw Error(msg + "; got \"" + v.as_string() + '"', v.line, v.col, key);
}

class FieldWriter {
 public:
  explicit FieldWriter(bool for_hash = false) : hashing(for_hash) {}

  const bool hashing;
  Value out = Value::object();

  FieldWriter& omit_if(bool omit) {
    omit_ = omit;
    return *this;
  }
  FieldWriter& required() { return *this; }

  void flag(std::string_view key, bool m) { put(key, m); }
  void text(std::string_view key, const std::string& m) { put(key, m); }
  template <class T>
  void uint(std::string_view key, const T& m, std::uint64_t /*lo*/ = 0,
            std::uint64_t /*hi*/ = 0) {
    if constexpr (std::is_signed_v<T>) {
      put(key, static_cast<std::int64_t>(m));
    } else {
      put(key, static_cast<std::uint64_t>(m));
    }
  }
  void real(std::string_view key, double m, double /*lo*/, double /*hi*/) { put(key, m); }
  void ms(std::string_view key, sim::Duration m) { put(key, duration_to_ms(m)); }
  void us(std::string_view key, sim::Duration m) { put(key, duration_to_us(m)); }
  void hash(std::string_view key, std::uint64_t m) { put(key, hash_string(m)); }
  template <class E, std::size_t N>
  void choice(std::string_view key, E m, const E (& /*names*/)[N]) {
    put(key, to_string(m));
  }
  template <class T, class... Read>
  void nested(std::string_view key, const T& m, Read... /*read*/) {
    if (!skip()) out.set(key, to_json(m));
  }
  template <class T>
  void list(std::string_view key, const std::vector<T>& m);
  template <class Visit>
  void section(std::string_view key, const char* /*context*/, Visit visit) {
    if (skip()) return;
    FieldWriter inner(hashing);
    visit(inner);
    out.set(key, std::move(inner.out));
  }

 private:
  bool skip() { return std::exchange(omit_, false); }
  template <class X>
  void put(std::string_view key, X&& x) {
    if (!skip()) out.set(key, Value(std::forward<X>(x)));
  }

  bool omit_ = false;
};

class FieldReader {
 public:
  static constexpr bool hashing = false;

  /// Reads the members of `object` into the fields a list names; members in
  /// `skip` (a bit per member index) are left alone.
  FieldReader(const Value& object, const char* context, std::uint64_t skip = 0)
      : object_(object), context_(context), seen_(skip) {}

  FieldReader& omit_if(bool /*omit*/) { return *this; }
  FieldReader& required() {
    required_ = true;
    return *this;
  }

  void flag(std::string_view key, bool& m) {
    if (const Value::Member* f = take(key)) m = read_bool(f->second, f->first);
  }
  void text(std::string_view key, std::string& m) {
    if (const Value::Member* f = take(key)) m = read_string(f->second, f->first);
  }
  template <class T>
  void uint(std::string_view key, T& m, std::uint64_t lo = 0,
            std::uint64_t hi = std::numeric_limits<T>::max()) {
    if (const Value::Member* f = take(key)) {
      m = static_cast<T>(read_u64(f->second, f->first, lo, hi));
    }
  }
  void real(std::string_view key, double& m, double lo, double hi) {
    if (const Value::Member* f = take(key)) m = read_double(f->second, f->first, lo, hi);
  }
  void ms(std::string_view key, sim::Duration& m) {
    if (const Value::Member* f = take(key)) m = read_duration_ms(f->second, f->first);
  }
  void us(std::string_view key, sim::Duration& m) {
    if (const Value::Member* f = take(key)) m = read_duration_us(f->second, f->first);
  }
  void hash(std::string_view key, std::uint64_t& m) {
    if (const Value::Member* f = take(key)) m = read_content_hash(f->second, f->first);
  }
  template <class E, std::size_t N>
  void choice(std::string_view key, E& m, const E (&names)[N]) {
    if (const Value::Member* f = take(key)) m = read_enum(f->second, f->first, names);
  }
  template <class T>
  void nested(std::string_view key, T& m) {
    if (const Value::Member* f = take(key)) apply_json(m, f->second);
  }
  template <class T, class Read>
  void nested(std::string_view key, T& m, Read read) {
    if (const Value::Member* f = take(key)) m = read(f->second);
  }
  template <class T>
  void list(std::string_view key, std::vector<T>& m);
  template <class Visit>
  void section(std::string_view key, const char* context, Visit visit);

  /// Members the walk read (plus the skipped ones), a bit per member index.
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

  /// Throw "unknown key in <context>" for the first member no field read.
  /// A list names fewer than 64 keys, so an object with more members has an
  /// unread one among its first 64, and the mask finds it.
  void reject_unread() const {
    const auto& members = object_.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i >= 64 || ((seen_ >> i) & 1U) == 0) {
        throw Error(std::string("unknown key in ") + context_, members[i].second.line,
                    members[i].second.col, members[i].first);
      }
    }
  }

 private:
  const Value::Member* take(std::string_view key) {
    const bool required = std::exchange(required_, false);
    const auto& members = object_.members();
    for (std::size_t i = 0; i < members.size() && i < 64; ++i) {
      if (((seen_ >> i) & 1U) == 0 && members[i].first == key) {
        seen_ |= std::uint64_t{1} << i;
        return &members[i];
      }
    }
    if (required) {
      throw Error(std::string(context_) + " has no \"" + std::string(key) + '"', object_.line,
                  object_.col, std::string(key));
    }
    return nullptr;
  }

  const Value& object_;
  const char* context_;
  std::uint64_t seen_;
  bool required_ = false;
};

/// Read the object `v` through the field list `visit(reader)`: every member
/// must match a field, and every required() field must be present.
template <class Visit>
void apply_object(const Value& v, const char* context, Visit visit) {
  if (!v.is_object()) throw Error("expected an object", v.line, v.col, context);
  FieldReader reader(v, context);
  visit(reader);
  reader.reject_unread();
}

template <class T>
void apply_fields(T& s, const Value& v) {
  apply_object(v, Fields<T>::kContext, [&s](auto& f) { Fields<T>::list(s, f); });
}

template <class T>
[[nodiscard]] Value write_fields(const T& s, bool hashing = false) {
  FieldWriter w(hashing);
  Fields<T>::list(s, w);
  return std::move(w.out);
}

template <class T>
void FieldWriter::list(std::string_view key, const std::vector<T>& m) {
  if (skip()) return;
  Value items = Value::array();
  for (const T& item : m) items.push_back(write_fields(item));
  out.set(key, std::move(items));
}

template <class T>
void FieldReader::list(std::string_view key, std::vector<T>& m) {
  const Value::Member* f = take(key);
  if (f == nullptr) return;
  const Value& items = f->second;
  if (!items.is_array()) {
    throw Error("expected an array of objects", items.line, items.col, f->first);
  }
  m.clear();
  m.reserve(items.items().size());
  for (const Value& item : items.items()) apply_fields(m.emplace_back(), item);
}

template <class Visit>
void FieldReader::section(std::string_view key, const char* context, Visit visit) {
  if (const Value::Member* f = take(key)) apply_object(f->second, context, visit);
}

}  // namespace pofi::spec
