// Seeded mutation test of the CSV reader: every mutant of a valid file
// either parses or is refused with a Status; none crashes. Mutants that
// only change line endings or add blank lines parse to the same values.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/real_datasets.h"

namespace crowdsky {
namespace {

std::string Encode(const Dataset& ds) {
  std::ostringstream out;
  WriteCsv(ds, out).CheckOK();
  return out.str();
}

Result<Dataset> Decode(const std::string& text) {
  std::istringstream in(text);
  return ReadCsv(in);
}

/// The file's lines, each with its '\n' (the last one may lack it).
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    end = end == std::string::npos ? text.size() : end + 1;
    lines.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

bool SameValues(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    const std::vector<double>& x = a.tuple(i).values;
    const std::vector<double>& y = b.tuple(i).values;
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0 ||
        a.tuple(i).label != b.tuple(i).label) {
      return false;
    }
  }
  return true;
}

enum class Mutation { kTruncate, kBitFlips, kCrlf, kBlankLines, kDupLine };

std::string Mutate(const std::string& base, Mutation kind, Rng* rng) {
  switch (kind) {
    case Mutation::kTruncate:
      return base.substr(0, rng->NextBounded(base.size() + 1));
    case Mutation::kBitFlips: {
      std::string out = base;
      const int flips = 1 + static_cast<int>(rng->NextBounded(3));
      for (int f = 0; f < flips; ++f) {
        out[rng->NextBounded(out.size())] ^=
            static_cast<char>(1u << rng->NextBounded(8));
      }
      return out;
    }
    case Mutation::kCrlf: {
      std::vector<std::string> lines = Lines(base);
      const bool all = rng->Bernoulli(0.5);
      for (std::string& line : lines) {
        if (!line.empty() && line.back() == '\n' &&
            (all || rng->Bernoulli(0.5))) {
          line.back() = '\r';
          line.push_back('\n');
        }
      }
      return Join(lines);
    }
    case Mutation::kBlankLines: {
      std::vector<std::string> lines = Lines(base);
      const char* blanks[] = {"\n", "\r\n", "  \t\n", "\v\f\n"};
      const int count = 1 + static_cast<int>(rng->NextBounded(4));
      for (int b = 0; b < count; ++b) {
        // After the header: a blank first line would be the header.
        const size_t at = 1 + rng->NextBounded(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     blanks[rng->NextBounded(4)]);
      }
      return Join(lines);
    }
    case Mutation::kDupLine: {
      std::vector<std::string> lines = Lines(base);
      const size_t from = rng->NextBounded(lines.size());
      const size_t at = rng->NextBounded(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[from]);
      return Join(lines);
    }
  }
  return base;
}

class CsvMutationTest : public ::testing::TestWithParam<std::string> {
 protected:
  static Dataset Base(const std::string& name) {
    if (name == "movies") return MakeMoviesDataset();
    GeneratorOptions opt;
    opt.cardinality = 30;
    opt.num_known = 4;
    opt.num_crowd = 1;
    opt.distribution = name == "ant" ? DataDistribution::kAntiCorrelated
                                     : DataDistribution::kIndependent;
    opt.seed = 11;
    return GenerateDataset(opt).ValueOrDie();
  }
};

TEST_P(CsvMutationTest, EveryMutantParsesOrIsRefused) {
  const Dataset original = Base(GetParam());
  const std::string base = Encode(original);
  Rng rng(20261018);
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < 1200; ++i) {
    const auto kind = static_cast<Mutation>(i % 5);
    const std::string mutant = Mutate(base, kind, &rng);
    SCOPED_TRACE("mutant " + std::to_string(i) + ":\n" + mutant);
    const Result<Dataset> r = Decode(mutant);
    if (!r.ok()) {
      ++refused;
      // A header flip can repeat an attribute name, which the schema
      // refuses as AlreadyExists; everything else is InvalidArgument.
      const bool duplicate_name =
          r.status().code() == StatusCode::kAlreadyExists &&
          r.status().message().find("duplicate attribute name") !=
              std::string::npos;
      ASSERT_TRUE(r.status().IsInvalidArgument() || duplicate_name)
          << r.status().ToString();
      ASSERT_NE(kind, Mutation::kCrlf);
      ASSERT_NE(kind, Mutation::kBlankLines);
      continue;
    }
    ++parsed;
    if (kind == Mutation::kCrlf || kind == Mutation::kBlankLines) {
      ASSERT_TRUE(SameValues(*r, original));
    }
    // What was accepted re-encodes to a file that reads back the same.
    const std::string again = Encode(*r);
    const Result<Dataset> reread = Decode(again);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    ASSERT_TRUE(SameValues(*reread, *r));
    ASSERT_EQ(Encode(*reread), again);
  }
  // Both outcomes occur, so the mutants reach past the happy path.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(refused, 100);
}

INSTANTIATE_TEST_SUITE_P(Bases, CsvMutationTest,
                         ::testing::Values(std::string("ind"),
                                           std::string("ant"),
                                           std::string("movies")),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace crowdsky
