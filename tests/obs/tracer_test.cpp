#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/event.hpp"
#include "sim/assert.hpp"

namespace dtncache::obs {
namespace {

TEST(EventKind, WireNamesRoundTrip) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kKindCount); ++k) {
    const auto kind = static_cast<EventKind>(k);
    const std::string name = eventKindName(kind);
    EXPECT_NE(name, "?") << "kind " << k << " has no wire name";
    const auto parsed = parseEventKind(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parseEventKind("no_such_kind").has_value());
}

TEST(EventKind, FilterParsing) {
  EXPECT_EQ(parseKindFilter(""), kAllKinds);
  EXPECT_EQ(parseKindFilter("push"), kindBit(EventKind::kPush));
  EXPECT_EQ(parseKindFilter("push,contact"),
            kindBit(EventKind::kPush) | kindBit(EventKind::kContact));
  EXPECT_THROW(parseKindFilter("push,tpyo"), InvariantViolation);
}

TEST(Tracer, RendersExactJsonlLine) {
  Tracer tracer("abc123");
  tracer.emit(EventKind::kPush, 3.5,
              {{"from", 1u}, {"to", 2u}, {"p", 0.25}, {"fresh", true}, {"cat", "refresh"}});
  EXPECT_EQ(tracer.buffer(),
            "{\"run\": \"abc123\", \"t\": 3.5, \"kind\": \"push\", \"from\": 1, "
            "\"to\": 2, \"p\": 0.25, \"fresh\": true, \"cat\": \"refresh\"}\n");
  EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST(Tracer, TextValuesAreEscaped) {
  Tracer tracer("r");
  tracer.emit(EventKind::kQuery, 0.0, {{"s", "a\"b\\c"}});
  EXPECT_NE(tracer.buffer().find("\"s\": \"a\\\"b\\\\c\""), std::string::npos);
}

TEST(Tracer, FilterDropsUnwantedKindsWithoutEvaluatingFields) {
  Tracer tracer("r", kindBit(EventKind::kPush));
  int evaluations = 0;
  const auto arg = [&evaluations] {
    ++evaluations;
    return 7u;
  };
  DTNCACHE_EVENT(&tracer, EventKind::kQuery, 1.0, {"n", arg()});
  DTNCACHE_EVENT(&tracer, EventKind::kPush, 2.0, {"n", arg()});
  EXPECT_EQ(tracer.eventCount(), 1u);
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(tracer.buffer().find("\"kind\": \"push\""), std::string::npos);
}

TEST(Tracer, NullTracerAddsNothingAndEvaluatesNothing) {
  int evaluations = 0;
  const auto arg = [&evaluations] {
    ++evaluations;
    return 7u;
  };
  Tracer* none = nullptr;
  DTNCACHE_EVENT(none, EventKind::kPush, 1.0, {"n", arg()});
  EXPECT_EQ(evaluations, 0);
}

TEST(Tracer, FlushMovesBufferToStreamAndClears) {
  Tracer tracer("r");
  tracer.emit(EventKind::kVersionBump, 1.0, {{"item", 0u}});
  tracer.emit(EventKind::kVersionBump, 2.0, {{"item", 1u}});
  std::ostringstream out;
  tracer.flushTo(out);
  EXPECT_EQ(tracer.buffer(), "");
  EXPECT_EQ(tracer.eventCount(), 2u);  // count survives the flush
  const std::string text = out.str();
  EXPECT_NE(text.find("\"t\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"t\": 2"), std::string::npos);
}

TEST(Tracer, DoubleRenderingMatchesResultSinkFormatter) {
  // Shared 17-significant-digit formatter: exact round-trip values.
  EXPECT_EQ(jsonNumber(0.5), "0.5");
  EXPECT_EQ(jsonNumber(1.0 / 3.0), "0.33333333333333331");
  std::istringstream in(jsonNumber(1.0 / 3.0));
  double back = 0.0;
  in >> back;
  EXPECT_EQ(back, 1.0 / 3.0);
}

}  // namespace
}  // namespace dtncache::obs
