#include "harness/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/check.h"

namespace gtpl::harness {

Table::Table(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  GTPL_CHECK(!columns_.empty());
}

void Table::AddRow(std::vector<std::string> cells) {
  GTPL_CHECK_EQ(cells.size(), columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&widths](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) line += "  ";
      line += cells[c];
      line.append(widths[c] - cells[c].size(), ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };
  std::string out = render_row(columns_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out.append(total >= 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string Table::ToCsv() const {
  auto csv_row = [](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) line += ',';
      const std::string& cell = cells[c];
      if (cell.find_first_of(",\"\r\n") == std::string::npos) {
        line += cell;
        continue;
      }
      line += '"';
      for (char ch : cell) {
        if (ch == '"') line += '"';
        line += ch;
      }
      line += '"';
    }
    return line + "\n";
  };
  std::string out = csv_row(columns_);
  for (const auto& row : rows_) out += csv_row(row);
  return out;
}

void Table::Print(const std::string& csv_path) const {
  std::fputs(ToString().c_str(), stdout);
  if (csv_path.empty()) return;
  std::ofstream file(csv_path);
  file << ToCsv();
  if (!file.flush()) {
    std::fprintf(stderr, "cannot write CSV file %s\n", csv_path.c_str());
    std::exit(2);
  }
}

std::string Fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FmtCi(double mean, double half_width, int digits) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f±%.*f", digits, mean, digits,
                half_width);
  return buf;
}

}  // namespace gtpl::harness
