#include "util/scope_markers.h"

#include <gtest/gtest.h>

namespace rdfrel {
namespace {

// RDFREL_QUERY_SCOPED is a lifetime contract consumed by rdfrel-lint, not a
// language feature: under Clang it expands to [[clang::annotate]], under
// other compilers to nothing. What a unit test CAN pin down is that the
// marker composes with the class syntaxes the codebase uses — `final`,
// inheritance, templates — and costs nothing at runtime.

class Base {
 public:
  virtual ~Base() = default;
};

class RDFREL_QUERY_SCOPED PlainScoped {
 public:
  int value = 3;
};

class RDFREL_QUERY_SCOPED DerivedScoped final : public Base {};

template <typename T>
class RDFREL_QUERY_SCOPED TemplatedScoped {
 public:
  T held{};
};

TEST(ScopeMarkersTest, MarkerComposesWithClassShapes) {
  PlainScoped plain;
  EXPECT_EQ(plain.value, 3);
  DerivedScoped derived;
  EXPECT_NE(dynamic_cast<Base*>(&derived), nullptr);
  TemplatedScoped<int> templated;
  EXPECT_EQ(templated.held, 0);
}

TEST(ScopeMarkersTest, MarkerIsLayoutNeutral) {
  // The annotation must not perturb object layout — a marked operator is
  // still layout-compatible with its unmarked shape.
  struct Unmarked {
    int value;
  };
  struct RDFREL_QUERY_SCOPED Marked {
    int value;
  };
  EXPECT_EQ(sizeof(Marked), sizeof(Unmarked));
  EXPECT_EQ(alignof(Marked), alignof(Unmarked));
}

}  // namespace
}  // namespace rdfrel
