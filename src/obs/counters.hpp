// Counters declared once (DESIGN.md §5k). A stats struct lists each of its
// counters exactly once, in an X-macro, and EDE_COUNTERS / EDE_COUNTER_SET
// generate everything else from that list: the std::uint64_t members, the
// summing fold, the after-minus-before delta, a walk over (dotted name,
// value) pairs in declaration order, and through that walk one JSON
// writer. Adding a counter to a list is the only edit it takes for the
// counter to be merged across shards, diffed and dumped.
//
//   #define EDE_FOO_COUNTERS(C, N) C(requests) N(resolver::Cache::Stats, cache)
//   struct Foo {
//     EDE_COUNTER_SET(Foo, "foo", EDE_FOO_COUNTERS)
//   };
//
// A real list puts one entry per line, each line ending in a backslash.
// C(name) declares a counter, named "<prefix>.<name>" in the walk.
// N(Type, name) embeds another counter set as a member; its counters keep
// their own prefix. Doc comments inside a list must be /* */ — a //
// comment swallows the rest of the spliced macro, counters included.
// Gauges (high-water marks, maxima) are not counters: they stay plain
// members, and the struct's hand-written merge folds them.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace ede::obs {

namespace detail {

template <typename T>
inline constexpr bool is_counter =
    std::is_same_v<std::remove_cvref_t<T>, std::uint64_t>;

/// Apply op(mine, theirs) to every counter of `a` and its twin in `b`,
/// recursing into embedded counter sets.
template <typename T, typename Op>
void zip(T& a, const T& b, Op& op) {
  T::visit_counters([&](std::string_view, auto member) {
    if constexpr (is_counter<decltype(a.*member)>)
      op(a.*member, b.*member);
    else
      zip(a.*member, b.*member, op);
  });
}

}  // namespace detail

/// into += other, counter by counter (the shard-merge fold).
template <typename T>
void add(T& into, const T& other) {
  auto op = [](std::uint64_t& mine, std::uint64_t theirs) { mine += theirs; };
  detail::zip(into, other, op);
}

/// after -= before, counter by counter (a delta over monotonic counters).
template <typename T>
void subtract(T& after, const T& before) {
  auto op = [](std::uint64_t& mine, std::uint64_t theirs) { mine -= theirs; };
  detail::zip(after, before, op);
}

/// f(dotted name, value) for every counter of `set`, in declaration order;
/// an embedded set's counters appear where it is declared.
template <typename T, typename F>
void for_each(const T& set, F&& f) {
  T::visit_counters([&](std::string_view name, auto member) {
    if constexpr (detail::is_counter<decltype(set.*member)>) {
      std::string dotted(T::counter_prefix);
      dotted += '.';
      dotted += name;
      f(std::string_view(dotted), set.*member);
    } else {
      for_each(set.*member, f);
    }
  });
}

/// Write every counter of `sets` as one flat JSON object, one
/// `"dotted.name": value` pair per line; `indent` prefixes the lines after
/// the opening brace. Names are fixed strings, so the output is
/// byte-stable for equal values.
template <typename... Sets>
void write_json(std::ostream& out, std::string_view indent,
                const Sets&... sets) {
  bool first = true;
  const auto emit = [&](std::string_view name, std::uint64_t value) {
    out << (first ? "{\n" : ",\n") << indent << "  \"" << name
        << "\": " << value;
    first = false;
  };
  (for_each(sets, emit), ...);
  if (first)
    out << "{}";
  else
    out << "\n" << indent << "}";
}

}  // namespace ede::obs

#define EDE_OBS_DECLARE(name) std::uint64_t name = 0;
#define EDE_OBS_DECLARE_SET(Type, name) Type name{};
#define EDE_OBS_VISIT(name) visit(#name, &ObsSelf::name);
#define EDE_OBS_VISIT_SET(Type, name) EDE_OBS_VISIT(name)

/// The members of LIST plus the reflection hook the ede::obs functions use.
/// For a struct that also holds gauges or containers: its own merge calls
/// ede::obs::add and then folds those by hand.
#define EDE_COUNTERS(Self, PREFIX, LIST)                       \
  LIST(EDE_OBS_DECLARE, EDE_OBS_DECLARE_SET)                   \
  static constexpr std::string_view counter_prefix = PREFIX;   \
  template <typename Visit>                                    \
  static void visit_counters(Visit&& visit) {                  \
    using ObsSelf = Self;                                      \
    LIST(EDE_OBS_VISIT, EDE_OBS_VISIT_SET)                     \
  }

/// A struct made only of counters: EDE_COUNTERS plus the generated fold as
/// merge() and after - before as operator-.
#define EDE_COUNTER_SET(Self, PREFIX, LIST)                    \
  EDE_COUNTERS(Self, PREFIX, LIST)                             \
  void merge(const Self& other) {                              \
    ::ede::obs::add(*this, other);                             \
  }                                                            \
  friend Self operator-(Self after, const Self& before) {      \
    ::ede::obs::subtract(after, before);                       \
    return after;                                              \
  }
