#include "src/harness/table.h"

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "src/util/logging.h"

namespace dibs {

TablePrinter::TablePrinter(std::vector<std::string> headers, std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths)) {
  if (widths_.empty()) {
    widths_.assign(headers_.size(), 0);
  }
  DIBS_CHECK_EQ(headers_.size(), widths_.size());
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths_[i] = std::max<int>(widths_[i], static_cast<int>(headers_[i].size()) + 2);
  }
}

void TablePrinter::PrintHeader(std::ostream& os) const {
  for (size_t i = 0; i < headers_.size(); ++i) {
    os << std::setw(widths_[i]) << headers_[i];
  }
  os << "\n";
  PrintSeparator(os);
}

void TablePrinter::PrintSeparator(std::ostream& os) const {
  int total = 0;
  for (int w : widths_) {
    total += w;
  }
  os << std::string(static_cast<size_t>(total), '-') << "\n";
}

void TablePrinter::PrintRow(const std::vector<std::string>& cells, std::ostream& os) const {
  DIBS_CHECK_EQ(cells.size(), headers_.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    // setw pads but never separates: a cell that fills its column would run
    // into the one before it.
    if (i > 0 && static_cast<int>(cells[i].size()) >= widths_[i]) {
      os << ' ';
    }
    os << std::setw(widths_[i]) << cells[i];
  }
  os << "\n";
}

std::string TablePrinter::Num(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string TablePrinter::Int(uint64_t value) { return std::to_string(value); }

void PrintFigureBanner(const std::string& figure_id, const std::string& caption,
                       const std::string& parameters, std::ostream& os) {
  os << "\n==============================================================================\n";
  os << figure_id << ": " << caption << "\n";
  if (!parameters.empty()) {
    os << "  [" << parameters << "]\n";
  }
  os << "==============================================================================\n";
}

}  // namespace dibs
