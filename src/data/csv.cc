#include "data/csv.h"

#include <fstream>
#include <istream>
#include <ostream>

#include "common/string_util.h"

namespace crowdsky {
namespace {

Result<AttributeSpec> ParseHeaderField(std::string_view field) {
  const std::vector<std::string> parts = SplitString(field, ':');
  if (parts.size() != 3) {
    return Status::InvalidArgument("header field must be name:kind:direction, "
                                   "got '" + std::string(field) + "'");
  }
  AttributeSpec spec;
  spec.name = std::string(TrimWhitespace(parts[0]));
  const std::string kind(TrimWhitespace(parts[1]));
  const std::string dir(TrimWhitespace(parts[2]));
  if (kind == "known") {
    spec.kind = AttributeKind::kKnown;
  } else if (kind == "crowd") {
    spec.kind = AttributeKind::kCrowd;
  } else {
    return Status::InvalidArgument("attribute kind must be known|crowd: '" +
                                   kind + "'");
  }
  if (dir == "min") {
    spec.direction = Direction::kMin;
  } else if (dir == "max") {
    spec.direction = Direction::kMax;
  } else {
    return Status::InvalidArgument("direction must be min|max: '" + dir +
                                   "'");
  }
  return spec;
}

/// Sets `*line` to the line of `text` starting at `*pos` (without its
/// '\n') and moves `*pos` past it; false once `text` is used up.
bool NextLine(std::string_view text, size_t* pos, std::string_view* line) {
  if (*pos >= text.size()) return false;
  size_t end = text.find('\n', *pos);
  if (end == std::string_view::npos) end = text.size();
  *line = text.substr(*pos, end - *pos);
  *pos = end + 1;
  return true;
}

Result<Dataset> ParseCsv(std::string_view text) {
  size_t next = 0;
  std::string_view line;
  if (!NextLine(text, &next, &line)) {
    return Status::InvalidArgument("empty CSV input");
  }
  const std::vector<std::string> header = SplitString(line, ',');
  std::vector<AttributeSpec> specs;
  bool has_label = false;
  for (size_t i = 0; i < header.size(); ++i) {
    const std::string_view field = TrimWhitespace(header[i]);
    if (field == "label") {
      if (i + 1 != header.size()) {
        return Status::InvalidArgument("label must be the last column");
      }
      has_label = true;
      break;
    }
    CROWDSKY_ASSIGN_OR_RETURN(AttributeSpec spec, ParseHeaderField(field));
    specs.push_back(std::move(spec));
  }
  CROWDSKY_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(specs)));

  std::vector<std::vector<double>> rows;
  std::vector<std::string> labels;
  size_t line_no = 1;
  while (NextLine(text, &next, &line)) {
    ++line_no;
    if (TrimWhitespace(line).empty()) continue;
    // The first num_attributes() fields are numeric; when a label column
    // exists, everything after the last numeric field is the label, so
    // labels may themselves contain commas ("Monsters, Inc.").
    std::vector<double> row;
    row.reserve(static_cast<size_t>(schema.num_attributes()));
    size_t pos = 0;
    for (int a = 0; a < schema.num_attributes(); ++a) {
      if (pos > line.size()) {
        return Status::InvalidArgument(StringFormat(
            "line %zu: expected %d numeric fields", line_no,
            schema.num_attributes()));
      }
      size_t comma = line.find(',', pos);
      const bool last_field = a + 1 == schema.num_attributes() && !has_label;
      if (last_field) {
        if (comma != std::string_view::npos) {
          return Status::InvalidArgument(StringFormat(
              "line %zu: too many fields", line_no));
        }
        comma = line.size();
      } else if (comma == std::string_view::npos) {
        if (a + 1 == schema.num_attributes() && has_label) {
          return Status::InvalidArgument(StringFormat(
              "line %zu: missing label field", line_no));
        }
        return Status::InvalidArgument(StringFormat(
            "line %zu: expected %d numeric fields", line_no,
            schema.num_attributes()));
      }
      auto value = ParseDouble(line.substr(pos, comma - pos));
      if (!value.ok()) {
        return Status::InvalidArgument(
            StringFormat("line %zu, column %d: %s", line_no, a,
                         value.status().message().c_str()));
      }
      row.push_back(*value);
      pos = comma + 1;
    }
    rows.push_back(std::move(row));
    if (has_label) {
      labels.emplace_back(
          TrimWhitespace(line.substr(pos > line.size() ? line.size() : pos)));
    }
  }
  return Dataset::Make(std::move(schema), std::move(rows),
                       std::move(labels));
}

std::string FormatCsv(const Dataset& dataset) {
  const Schema& schema = dataset.schema();
  bool any_label = false;
  for (const Tuple& t : dataset.tuples()) {
    if (!t.label.empty()) {
      any_label = true;
      break;
    }
  }
  std::string out;
  // About 20 bytes per %.17g value. Growing the string from empty made
  // BM_CsvWrite/3000 about 1.5x slower.
  out.reserve(static_cast<size_t>(dataset.size()) *
              (static_cast<size_t>(schema.num_attributes()) * 20 + 1));
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (a > 0) out.push_back(',');
    const AttributeSpec& spec = schema.attribute(a);
    out.append(spec.name);
    out.append(spec.kind == AttributeKind::kKnown ? ":known:" : ":crowd:");
    out.append(spec.direction == Direction::kMin ? "min" : "max");
  }
  if (any_label) out.append(",label");
  out.push_back('\n');
  for (const Tuple& t : dataset.tuples()) {
    for (size_t a = 0; a < t.values.size(); ++a) {
      if (a > 0) out.push_back(',');
      AppendDouble(&out, t.values[a]);
    }
    if (any_label) {
      out.push_back(',');
      out.append(t.label);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace

Result<Dataset> ReadCsv(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  // A read error (the path named a directory) sets badbit; end of input
  // sets only eofbit and failbit.
  if (in.bad()) return Status::IOError("stream read failed");
  return ParseCsv(text);
}

Result<Dataset> ReadCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadCsv(in);
}

Status WriteCsv(const Dataset& dataset, std::ostream& out) {
  const std::string text = FormatCsv(dataset);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteCsvFile(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  CROWDSKY_RETURN_NOT_OK(WriteCsv(dataset, out));
  // A short file sits in the stream buffer until close; its write error
  // shows only there.
  out.close();
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace crowdsky
