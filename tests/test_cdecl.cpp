// Declaration-parser tests, including the paper's spmv signature and
// access-mode inference from const / by-reference semantics.
#include <gtest/gtest.h>

#include "cdecl/cdecl.hpp"
#include "support/error.hpp"

namespace peppher::cdecl_parser {
namespace {

TEST(Cdecl, ParsesSimpleFunction) {
  const FunctionDecl decl = parse_declaration("void f(int a, float b);");
  EXPECT_EQ(decl.name, "f");
  EXPECT_EQ(decl.return_type.spelling(), "void");
  ASSERT_EQ(decl.params.size(), 2u);
  EXPECT_EQ(decl.params[0].name, "a");
  EXPECT_EQ(decl.params[0].type.spelling(), "int");
  EXPECT_EQ(decl.params[1].type.spelling(), "float");
}

TEST(Cdecl, ParsesThePaperSpmvSignature) {
  const FunctionDecl decl = parse_declaration(
      "void spmv(float* values, int nnz, int nrows, int ncols, int first, "
      "size_t* colidxs, size_t* rowPtr, float* x, float* y);");
  EXPECT_EQ(decl.name, "spmv");
  ASSERT_EQ(decl.params.size(), 9u);
  EXPECT_EQ(decl.params[0].type.pointer_depth, 1);
  EXPECT_EQ(decl.params[5].type.base, "size_t");
  EXPECT_EQ(decl.params[8].name, "y");
}

TEST(Cdecl, ParsesConstPointers) {
  const FunctionDecl decl =
      parse_declaration("void f(const float* in, float* out);");
  EXPECT_TRUE(decl.params[0].type.is_const);
  EXPECT_FALSE(decl.params[1].type.is_const);
  EXPECT_EQ(decl.params[0].type.spelling(), "const float*");
}

TEST(Cdecl, ParsesTrailingConstQualifier) {
  const FunctionDecl decl = parse_declaration("void f(float const* in);");
  EXPECT_TRUE(decl.params[0].type.is_const);
}

TEST(Cdecl, ParsesReferences) {
  const FunctionDecl decl =
      parse_declaration("void f(const Vector<float>& in, Matrix<double>& out);");
  EXPECT_TRUE(decl.params[0].type.is_reference);
  EXPECT_EQ(decl.params[0].type.base, "Vector<float>");
  EXPECT_EQ(decl.params[1].type.base, "Matrix<double>");
}

TEST(Cdecl, ParsesMultiWordBuiltins) {
  const FunctionDecl decl =
      parse_declaration("void f(unsigned long long n, long double x);");
  EXPECT_EQ(decl.params[0].type.base, "unsigned long long");
  EXPECT_EQ(decl.params[1].type.base, "long double");
}

TEST(Cdecl, ParsesQualifiedNames) {
  const FunctionDecl decl = parse_declaration("void f(std::size_t n);");
  EXPECT_EQ(decl.params[0].type.base, "std::size_t");
}

TEST(Cdecl, ParsesTemplatePrefix) {
  const FunctionDecl decl =
      parse_declaration("template <typename T, class U> void f(T* data, U n);");
  EXPECT_TRUE(decl.is_generic());
  ASSERT_EQ(decl.template_params.size(), 2u);
  EXPECT_EQ(decl.template_params[0], "T");
  EXPECT_EQ(decl.template_params[1], "U");
}

TEST(Cdecl, ArraySuffixBecomesPointer) {
  const FunctionDecl decl = parse_declaration("void f(float x[], int y[16]);");
  EXPECT_EQ(decl.params[0].type.pointer_depth, 1);
  EXPECT_EQ(decl.params[1].type.pointer_depth, 1);
}

TEST(Cdecl, UnnamedParamsGetSynthesisedNames) {
  const FunctionDecl decl = parse_declaration("void f(int, float*);");
  EXPECT_EQ(decl.params[0].name, "arg0");
  EXPECT_EQ(decl.params[1].name, "arg1");
}

TEST(Cdecl, DoublePointer) {
  const FunctionDecl decl = parse_declaration("void f(char** argv);");
  EXPECT_EQ(decl.params[0].type.pointer_depth, 2);
}

TEST(Cdecl, MissingSemicolonIsTolerated) {
  const FunctionDecl decl = parse_declaration("void f(int x)");
  EXPECT_EQ(decl.name, "f");
}

TEST(Cdecl, RejectsGarbage) {
  EXPECT_THROW(parse_declaration("not a declaration"), ParseError);
  EXPECT_THROW(parse_declaration(""), ParseError);
  EXPECT_THROW(parse_declaration("void (int x);"), ParseError);
}

// -- access inference (the paper: const & pass-by-reference analysis) --------

TEST(CdeclAccess, ValueParamsAreRead) {
  const FunctionDecl decl = parse_declaration("void f(int n, float x);");
  EXPECT_EQ(decl.params[0].inferred_access(), Access::kRead);
  EXPECT_EQ(decl.params[1].inferred_access(), Access::kRead);
}

TEST(CdeclAccess, ConstPointerIsRead) {
  const FunctionDecl decl = parse_declaration("void f(const float* in);");
  EXPECT_EQ(decl.params[0].inferred_access(), Access::kRead);
}

TEST(CdeclAccess, NonConstPointerIsReadWrite) {
  const FunctionDecl decl = parse_declaration("void f(float* data);");
  EXPECT_EQ(decl.params[0].inferred_access(), Access::kReadWrite);
}

TEST(CdeclAccess, OutNamingConventionIsWrite) {
  const FunctionDecl decl =
      parse_declaration("void f(float* out_y, float* y_out, float* out);");
  for (const Param& p : decl.params) {
    EXPECT_EQ(p.inferred_access(), Access::kWrite) << p.name;
  }
}

TEST(CdeclAccess, ConstReferenceIsRead) {
  const FunctionDecl decl = parse_declaration("void f(const Vector<float>& v);");
  EXPECT_EQ(decl.params[0].inferred_access(), Access::kRead);
}

// -- header scanning -----------------------------------------------------------

TEST(CdeclHeader, FindsAllDeclarations) {
  const auto decls = parse_header(R"(
    #pragma once
    #include <cstddef>
    // a comment
    void first(int a);
    /* block comment */
    void second(const float* x, float* y);
    using weird = int;
    int not_parsed_variable;
  )");
  ASSERT_EQ(decls.size(), 2u);
  EXPECT_EQ(decls[0].name, "first");
  EXPECT_EQ(decls[1].name, "second");
}

TEST(CdeclHeader, SkipsFunctionBodies) {
  const auto decls = parse_header(R"(
    void declared(int a);
    inline int defined(int b) { return b + 1; }
  )");
  ASSERT_EQ(decls.size(), 1u);
  EXPECT_EQ(decls[0].name, "declared");
}

TEST(CdeclHeader, TemplateDeclInHeader) {
  const auto decls = parse_header(
      "template <typename T> void sort(T* data, size_t n);");
  ASSERT_EQ(decls.size(), 1u);
  EXPECT_TRUE(decls[0].is_generic());
}

TEST(CdeclHeader, EmptyHeaderYieldsNothing) {
  EXPECT_TRUE(parse_header("// nothing here\n#define X 1\n").empty());
}

// Punctuation inside comments must not split or nest declarations: the
// header splitter runs after comments are stripped.
TEST(CdeclHeader, SemicolonInLineCommentKeepsTheNextDeclaration) {
  const auto decls = parse_header(
      "void a(int x); // note; more\n"
      "void b(float* y);\n");
  ASSERT_EQ(decls.size(), 2u);
  EXPECT_EQ(decls[1].name, "b");
}

TEST(CdeclHeader, AngleBracketInBlockCommentKeepsLaterDeclarations) {
  const auto decls = parse_header(
      "/* x < y */\n"
      "void a(int x);\n"
      "void b(float* y);\n"
      "void c(const float* z);\n");
  ASSERT_EQ(decls.size(), 3u);
  EXPECT_EQ(decls[0].name, "a");
  EXPECT_EQ(decls[2].name, "c");
}

TEST(CdeclHeader, SemicolonInBlockCommentKeepsTheDeclarationAfterIt) {
  const auto decls = parse_header("/* a; b */ void b(int x);\n");
  ASSERT_EQ(decls.size(), 1u);
  EXPECT_EQ(decls[0].name, "b");
  ASSERT_EQ(decls[0].params.size(), 1u);
}

}  // namespace
}  // namespace peppher::cdecl_parser
