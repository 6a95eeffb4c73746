#pragma once

/// \file csv.hpp
/// \brief Minimal RFC-4180-style CSV writing for experiment outputs.

#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cloudwf {

/// Streams rows of a CSV document to any std::ostream.
///
/// Fields containing separators, quotes or newlines are quoted and escaped.
/// Numeric overloads format with enough digits to round-trip a double.
class CsvWriter {
 public:
  /// Writes to \p out; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out, char separator = ',');

  /// Writes the header row; must be the first row written.
  void header(std::span<const std::string_view> names);
  void header(std::initializer_list<std::string_view> names) {
    header(std::span(names.begin(), names.size()));
  }

  CsvWriter& field(std::string_view value);
  CsvWriter& field(double value);
  CsvWriter& field(std::size_t value);
  CsvWriter& field(int value);

  /// Terminates the current row.
  void end_row();

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  void separator_if_needed();
  void write_escaped(std::string_view value);

  std::ostream& out_;
  char sep_;
  bool at_row_start_ = true;
  std::size_t rows_ = 0;
  std::size_t header_fields_ = 0;
  std::size_t fields_in_row_ = 0;
};

/// Parses an RFC-4180-style CSV document: quoted fields, doubled quotes,
/// embedded separators/newlines, LF or CRLF row ends.  The exact inverse of
/// CsvWriter's escaping, so write -> parse round-trips any field content.
/// Blank lines are skipped; throws ValidationError on an unterminated quote.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(std::string_view text,
                                                              char separator = ',');

}  // namespace cloudwf
