// dart-pipeline-lint: ahead-of-time feasibility check of a Dart
// deployment against a Tofino-style target, playing the role of the
// hardware compiler's constraint pass (Section 4/5 and Table 1 of the
// paper). Prints a placement report and rule-coded diagnostics; exits 0
// when the configuration is feasible, 1 when it is not, 2 on usage error
// (a numeric value that is not a whole decimal number in range included).
//
//   dart-pipeline-lint --target tofino1                 # paper defaults
//   dart-pipeline-lint --target tofino1 --pt-stages 4   # rejected: stages
//   dart-pipeline-lint --target tofino1 --pt-stages 4 --split   # feasible
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/resource_model.hpp"
#include "dataplane/verify/checker.hpp"
#include "dataplane/verify/pipeline_program.hpp"
#include "dataplane/verify/static_checks.hpp"
#include "tools/cli_flags.hpp"

namespace {

using dart::dataplane::DartLayout;
using dart::dataplane::TargetProfile;
using dart::dataplane::verify::CheckReport;
using dart::dataplane::verify::MonitorShape;
using dart::dataplane::verify::Rule;
using dart::tools::flag_value;

/// Names the tool in usage errors.
constexpr std::string_view kTool = "dart-pipeline-lint";

void print_usage(std::ostream& out) {
  out << "usage: dart-pipeline-lint [options]\n"
         "\n"
         "Target selection:\n"
         "  --target tofino1|tofino2   chip profile (default tofino1)\n"
         "  --split                    span ingress+egress (Tofino1\n"
         "                             prototype deployment)\n"
         "\n"
         "Deployment knobs (defaults are the paper's configuration):\n"
         "  --rt-slots N               Range Tracker slots (default 65536)\n"
         "  --pt-slots N               Packet Tracker slots (default "
         "131072)\n"
         "  --pt-stages N              Packet Tracker stages (default 1)\n"
         "  --recirc N                 per-insertion recirculation budget\n"
         "                             (default 1)\n"
         "  --flow-rules N             TCAM flow-selection rules (default "
         "1024)\n"
         "  --both-legs                monitor both path legs (Section 5)\n"
         "  --shadow-rt                Section 7 shadow Range Tracker\n"
         "  --ipv6                     36-byte flow keys instead of 12\n"
         "  --register-bits N          stateful register width (default "
         "32)\n"
         "  --no-flow-filter           drop the operator flow filter\n"
         "  --no-payload-lut           compute payload size arithmetically\n"
         "  --extra-table NAME         declare NAME without accessing it\n"
         "                             (models a dead-table generator bug;\n"
         "                             rejected by DPL008)\n"
         "\n"
         "Other:\n"
         "  --quiet                    print diagnostics only, no report\n"
         "  --list-rules               describe the checker rules and exit\n"
         "  --help                     this text\n";
}

void print_rules(std::ostream& out) {
  const Rule rules[] = {
      Rule::kConfig,        Rule::kSingleAccessPerPass,
      Rule::kRmwSingleStage, Rule::kStagePlacement,
      Rule::kStageBudget,   Rule::kRecirculation,
      Rule::kRegisterWidth, Rule::kMemoryBudget,
      Rule::kDeadTable,
  };
  for (const Rule rule : rules) {
    out << dart::dataplane::verify::rule_code(rule) << "  "
        << dart::dataplane::verify::rule_name(rule) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  DartLayout layout;
  MonitorShape shape;
  TargetProfile target = dart::dataplane::tofino1_profile();
  std::vector<std::string> extra_tables;
  bool quiet = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](std::string& out) -> bool {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << arg << " needs a value\n";
        return false;
      }
      out = args[++i];
      return true;
    };
    std::string v;
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--list-rules") {
      print_rules(std::cout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--split") {
      shape.split_ingress_egress = true;
    } else if (arg == "--both-legs") {
      shape.both_legs = true;
    } else if (arg == "--shadow-rt") {
      shape.shadow_rt = true;
    } else if (arg == "--ipv6") {
      shape.flow_key_bytes = 36;  // v6 addresses + ports
    } else if (arg == "--no-flow-filter") {
      shape.use_flow_filter = false;
    } else if (arg == "--no-payload-lut") {
      shape.use_payload_lut = false;
    } else if (arg == "--target") {
      if (!value(v)) return 2;
      if (v == "tofino1") {
        target = dart::dataplane::tofino1_profile();
      } else if (v == "tofino2") {
        target = dart::dataplane::tofino2_profile();
      } else {
        std::cerr << "error: unknown target '" << v << "'\n";
        return 2;
      }
    } else if (arg == "--rt-slots") {
      if (!value(v) || !flag_value(kTool, arg, v, &layout.rt_slots)) return 2;
    } else if (arg == "--pt-slots") {
      if (!value(v) || !flag_value(kTool, arg, v, &layout.pt_slots)) return 2;
    } else if (arg == "--pt-stages") {
      if (!value(v) || !flag_value(kTool, arg, v, &shape.pt_stages)) return 2;
    } else if (arg == "--recirc") {
      if (!value(v) || !flag_value(kTool, arg, v, &shape.max_recirculations)) {
        return 2;
      }
    } else if (arg == "--flow-rules") {
      if (!value(v) || !flag_value(kTool, arg, v, &layout.flow_filter_rules)) {
        return 2;
      }
    } else if (arg == "--register-bits") {
      if (!value(v) || !flag_value(kTool, arg, v, &shape.register_bits)) {
        return 2;
      }
    } else if (arg == "--extra-table") {
      if (!value(v)) return 2;
      extra_tables.push_back(v);
    } else {
      std::cerr << "error: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  const CheckReport report = dart::dataplane::verify::check_deployment(
      layout, shape, target, extra_tables);
  if (quiet) {
    const std::string diags =
        dart::dataplane::verify::format_diagnostics(report.diagnostics);
    if (!diags.empty()) std::cout << diags << "\n";
    std::cout << (report.feasible() ? "FEASIBLE" : "INFEASIBLE") << "\n";
  } else {
    std::cout << report.to_string();
  }
  return report.feasible() ? 0 : 1;
}
