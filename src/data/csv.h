// CSV load/save for datasets, so users can bring their own relations to the
// examples and the engine.
//
// Format: the first line is a header of `name:kind:direction` fields, e.g.
//     width:known:max,height:known:max,area:crowd:max,label
// An optional trailing `label` column carries tuple names. Remaining lines
// are numeric rows. Crowd columns hold the hidden ground-truth values (use
// 0 for "truly unknown"; they are only read by the simulated crowd).
//
// Values are written as printf's `%.17g` and read back bit-exactly,
// subnormals included. Lines may end in CRLF; fields are trimmed of ASCII
// whitespace and blank lines are skipped. The reader takes the whole input
// into one buffer and parses it in a single pass.
#pragma once

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace crowdsky {

/// Parses a dataset from CSV text.
Result<Dataset> ReadCsv(std::istream& in);

/// Parses a dataset from a CSV file on disk; a file that cannot be opened or
/// read (a directory) is an IOError.
Result<Dataset> ReadCsvFile(const std::string& path);

/// Serializes a dataset to CSV text (inverse of ReadCsv).
Status WriteCsv(const Dataset& dataset, std::ostream& out);

/// Serializes a dataset to a CSV file on disk. The file is closed before
/// returning, so a write error (a full disk) is an IOError, never OK.
Status WriteCsvFile(const Dataset& dataset, const std::string& path);

}  // namespace crowdsky
