// json_validate — strict JSON well-formedness checker for CI smoke
// tests (validates --metrics-out / --trace-out files without any
// external dependency).
//
// Usage: json_validate [--jsonl] FILE...
//   default   each FILE must be exactly one JSON value
//   --jsonl   each FILE is JSON Lines: one value per line; a torn
//             (unterminated) final line is tolerated, matching the
//             crash-append semantics of the run ledger and the
//             flight recorder
// Exits 0 when every file parses, 1 otherwise (first error printed).
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

int main(int argc, char** argv) {
  bool jsonl = false;
  int first_file = 1;
  if (argc > 1 && std::strcmp(argv[1], "--jsonl") == 0) {
    jsonl = true;
    first_file = 2;
  }
  if (first_file >= argc) {
    std::cerr << "usage: " << argv[0] << " [--jsonl] FILE...\n";
    return 2;
  }
  for (int i = first_file; i < argc; ++i) {
    std::ifstream f(argv[i]);
    if (!f) {
      std::cerr << argv[i] << ": cannot open\n";
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    std::string error;
    if (jsonl) {
      std::size_t lines = 0;
      if (!tagnn::obs::jsonl_valid(buf.str(), &error,
                                   /*tolerate_torn_final=*/true, &lines)) {
        std::cerr << argv[i] << ": invalid JSONL: " << error << "\n";
        return 1;
      }
      std::cout << argv[i] << ": ok (" << lines << " documents)\n";
    } else {
      if (!tagnn::obs::json_valid(buf.str(), &error)) {
        std::cerr << argv[i] << ": invalid JSON: " << error << "\n";
        return 1;
      }
      std::cout << argv[i] << ": ok\n";
    }
  }
  return 0;
}
