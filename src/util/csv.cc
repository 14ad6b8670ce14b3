#include "util/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "fail/fault_injection.h"

namespace srp {
namespace {

/// WriteCsv hands its buffer to fwrite each time it passes this size: one
/// system call per MiB, and a bounded buffer whatever the table's size.
constexpr size_t kFlushBytes = size_t{1} << 20;

void AppendField(const std::string& field, std::string* out) {
  bool needs_quoting = false;
  for (const char c : field) {
    if (c == ',' || c == '"' || c == '\n') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (const char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendRow(const std::vector<std::string>& row, std::string* out) {
  // A single empty field would serialize as a blank line, which readers
  // (including ReadCsv) skip; quote it so the row survives a round trip.
  if (row.size() == 1 && row[0].empty()) {
    out->append("\"\"\n");
    return;
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendField(row[i], out);
  }
  out->push_back('\n');
}

bool WriteAll(const std::string& bytes, std::FILE* file) {
  return std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
}

}  // namespace

int CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status WriteCsv(const CsvTable& table, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  std::string buffer;
  AppendRow(table.header, &buffer);
  bool ok = true;
  for (const auto& row : table.rows) {
    AppendRow(row, &buffer);
    if (buffer.size() >= kFlushBytes) {
      ok = WriteAll(buffer, file);
      if (!ok) break;
      buffer.clear();
    }
  }
  if (ok) ok = WriteAll(buffer, file);
  // fclose flushes what stdio still holds; a full disk can surface only here.
  if (std::fclose(file) != 0) ok = false;
  if (!ok) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<CsvTable> ReadCsv(const std::string& path) {
  SRP_INJECT_FAULT("csv.read");
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) return Status::IOError("read failed: " + path);
  const std::string text = buffer.str();

  // Record-level state machine rather than getline + ParseCsvLine: quoted
  // fields may span lines (WriteCsv quotes embedded '\n', so round-tripping
  // needs this), CRLF line endings are accepted transparently, and malformed
  // input (ragged rows, an unterminated quote) is reported as a Status with
  // the offending row instead of being silently mis-shaped.
  CsvTable table;
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool record_has_content = false;  // any char or separator seen this record
  bool have_header = false;
  size_t data_row = 0;  // 1-based index of the row being finished

  const auto finish_record = [&]() -> Status {
    if (!record_has_content) return Status::OK();  // blank line: skip
    fields.push_back(std::move(current));
    current.clear();
    record_has_content = false;
    if (!have_header) {
      table.header = std::move(fields);
      have_header = true;
    } else {
      ++data_row;
      if (fields.size() != table.header.size()) {
        return Status::InvalidArgument(
            "row " + std::to_string(data_row) + " has " +
            std::to_string(fields.size()) + " fields, expected " +
            std::to_string(table.header.size()) + ": " + path);
      }
      table.rows.push_back(std::move(fields));
    }
    fields.clear();
    return Status::OK();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;  // separators and newlines are literal inside quotes
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        record_has_content = true;  // "" is a quoted empty field, not a blank
        break;
      case ',':
        fields.push_back(std::move(current));
        current.clear();
        record_has_content = true;
        break;
      case '\r':
        break;  // CRLF (or a stray CR): the '\n' ends the record
      case '\n':
        SRP_RETURN_IF_ERROR(finish_record());
        break;
      default:
        current += c;
        record_has_content = true;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field: " + path);
  }
  SRP_RETURN_IF_ERROR(finish_record());  // file may lack a trailing newline

  if (!have_header) return Status::IOError("empty CSV file: " + path);
  return table;
}

}  // namespace srp
