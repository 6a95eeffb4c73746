#include "common/csv.hpp"

#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace cloudwf {

CsvWriter::CsvWriter(std::ostream& out, char separator) : out_(out), sep_(separator) {}

void CsvWriter::header(std::span<const std::string_view> names) {
  require(rows_ == 0 && at_row_start_, "CsvWriter::header: header must be the first row");
  require(!names.empty(), "CsvWriter::header: empty header");
  for (const std::string_view name : names) field(name);
  header_fields_ = fields_in_row_;
  end_row();
}

CsvWriter& CsvWriter::field(std::string_view value) {
  separator_if_needed();
  write_escaped(value);
  ++fields_in_row_;
  return *this;
}

CsvWriter& CsvWriter::field(double value) {
  separator_if_needed();
  if (std::isfinite(value)) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
    CLOUDWF_ASSERT(ec == std::errc{});
    out_.write(buf, ptr - buf);
  } else {
    out_ << (std::isnan(value) ? "nan" : (value > 0 ? "inf" : "-inf"));
  }
  ++fields_in_row_;
  return *this;
}

CsvWriter& CsvWriter::field(std::size_t value) {
  separator_if_needed();
  out_ << value;
  ++fields_in_row_;
  return *this;
}

CsvWriter& CsvWriter::field(int value) {
  separator_if_needed();
  out_ << value;
  ++fields_in_row_;
  return *this;
}

void CsvWriter::end_row() {
  require(!at_row_start_, "CsvWriter::end_row: empty row");
  if (header_fields_ != 0)
    require(fields_in_row_ == header_fields_, "CsvWriter::end_row: field count differs from header");
  out_ << '\n';
  at_row_start_ = true;
  fields_in_row_ = 0;
  ++rows_;
}

void CsvWriter::separator_if_needed() {
  if (!at_row_start_) out_ << sep_;
  at_row_start_ = false;
}

void CsvWriter::write_escaped(std::string_view value) {
  const bool needs_quotes = value.find_first_of(std::string{sep_} + "\"\n\r") != std::string_view::npos;
  if (!needs_quotes) {
    out_ << value;
    return;
  }
  out_ << '"';
  for (char c : value) {
    if (c == '"') out_ << '"';
    out_ << c;
  }
  out_ << '"';
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text, char separator) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;  // a separator or any field character seen
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';  // doubled quote = literal quote
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;  // separators and newlines are data inside quotes
      }
      ++i;
      continue;
    }
    if (c == '"' && field.empty()) {  // opening quote at field start
      in_quotes = true;
      row_has_content = true;
      ++i;
      continue;
    }
    if (c == separator) {
      row.push_back(std::move(field));
      field.clear();
      row_has_content = true;
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;  // CRLF
      ++i;
      if (row_has_content || !field.empty()) {
        row.push_back(std::move(field));
        field.clear();
        rows.push_back(std::move(row));
        row.clear();
        row_has_content = false;
      }
      continue;  // blank line: no row
    }
    field += c;
    row_has_content = true;
    ++i;
  }
  require(!in_quotes, "parse_csv: unterminated quoted field");
  if (row_has_content || !field.empty()) {  // final row without trailing newline
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace cloudwf
