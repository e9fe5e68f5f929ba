// Small string helpers shared by the CSV reader, loggers and benches.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace crowdsky {

/// Splits `input` on `delim`; keeps empty fields.
std::vector<std::string> SplitString(std::string_view input, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view input);

/// Parses a double after trimming ASCII whitespace. Accepts what strtod
/// accepts (a leading `+`, hex floats, `inf`, `nan`, `.5`, `5.`) and parses
/// subnormals bit-exactly. Fails with InvalidArgument on empty input or
/// trailing characters, and with OutOfRange on overflow or on underflow to
/// zero (`1e999`, `1e-400`).
Result<double> ParseDouble(std::string_view input);

/// Parses a signed base-10 integer after trimming ASCII whitespace; fails on
/// empty/garbage/overflow.
Result<int64_t> ParseInt64(std::string_view input);

/// Appends `v` formatted exactly as printf's `%.17g`, which round-trips
/// every finite double bit-exactly through ParseDouble.
void AppendDouble(std::string* out, double v);

/// Joins items with `sep`.
std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep);

/// printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// True iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace crowdsky
