#include "core/report.h"

#include <algorithm>
#include <vector>

#include "core/interest.h"
#include "io/table_printer.h"
#include "stats/multiple_testing.h"

namespace corrmine {

namespace {

std::string NameOf(ItemId item, const ItemDictionary* dict) {
  if (dict != nullptr) {
    auto name = dict->Name(item);
    if (name.ok()) return *name;
  }
  return "i" + std::to_string(item);
}

std::string ItemsetNames(const Itemset& s, const ItemDictionary* dict) {
  std::string out;
  for (ItemId item : s) {
    if (!out.empty()) out += " + ";
    out += NameOf(item, dict);
  }
  return out;
}

/// True when the rule's major-dependence cell has every item present (the
/// all-present corner), which is where "joint interest" reads naturally.
bool AllPresentCell(const CorrelationRule& rule) {
  uint32_t full = (uint32_t{1} << rule.itemset.size()) - 1;
  return rule.major_dependence.mask == full;
}

}  // namespace

Status ValidateReportOptions(const ReportOptions& options) {
  if (options.fdr_level == 0.0 ||
      (options.fdr_level > 0.0 && options.fdr_level < 1.0)) {
    return Status::OK();
  }
  return Status::InvalidArgument("FDR level must be 0 (off) or in (0,1)");
}

StatusOr<std::string> RenderReport(const MiningResult& result,
                                   const ItemDictionary* dict,
                                   const ReportOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateReportOptions(options));
  std::string out;

  out += "== Search statistics ==\n";
  {
    io::TablePrinter levels({"level", "candidates", "discards",
                             "significant", "kept uncorrelated"});
    for (const LevelStats& level : result.levels) {
      levels.AddRow({std::to_string(level.level),
                     std::to_string(level.candidates),
                     std::to_string(level.discards),
                     std::to_string(level.significant),
                     std::to_string(level.not_significant)});
    }
    out += levels.Render();
  }

  // Optional FDR filter over the findings.
  std::vector<const CorrelationRule*> rules;
  for (const CorrelationRule& rule : result.significant) {
    rules.push_back(&rule);
  }
  size_t fdr_removed = 0;
  if (options.fdr_level > 0.0 && !rules.empty()) {
    std::vector<double> p_values;
    p_values.reserve(rules.size());
    for (const CorrelationRule* rule : rules) {
      p_values.push_back(rule->chi2.p_value);
    }
    CORRMINE_ASSIGN_OR_RETURN(
        std::vector<bool> keep,
        stats::BenjaminiHochberg(p_values, options.fdr_level));
    std::vector<const CorrelationRule*> filtered;
    for (size_t i = 0; i < rules.size(); ++i) {
      if (keep[i]) {
        filtered.push_back(rules[i]);
      } else {
        ++fdr_removed;
      }
    }
    rules = std::move(filtered);
  }

  std::sort(rules.begin(), rules.end(),
            [](const CorrelationRule* a, const CorrelationRule* b) {
              return a->chi2.statistic > b->chi2.statistic;
            });

  out += "\n== Strongest correlations ==\n";
  {
    io::TablePrinter strongest({"itemset", "chi2", "p-value",
                                "driving cell", "interest"});
    for (size_t i = 0; i < rules.size() && i < options.max_rules; ++i) {
      const CorrelationRule& rule = *rules[i];
      strongest.AddRow(
          {ItemsetNames(rule.itemset, dict),
           io::FormatDouble(rule.chi2.statistic, 2),
           io::FormatDouble(rule.chi2.p_value, 6),
           FormatCellPattern(rule.itemset, rule.major_dependence.mask,
                             dict),
           io::FormatDouble(rule.major_dependence.interest, 3)});
    }
    out += strongest.Render();
  }

  out += "\n== Negative dependencies (items that avoid each other) ==\n";
  {
    io::TablePrinter negatives({"itemset", "chi2", "joint interest"});
    size_t shown = 0;
    for (const CorrelationRule* rule : rules) {
      // Negative dependence: the all-present corner is the major cell with
      // interest below the cutoff, or any major cell with interest < 1
      // that includes every item.
      if (AllPresentCell(*rule) &&
          rule->major_dependence.interest <
              options.negative_interest_cutoff) {
        negatives.AddRow({ItemsetNames(rule->itemset, dict),
                          io::FormatDouble(rule->chi2.statistic, 2),
                          io::FormatDouble(rule->major_dependence.interest,
                                           3)});
        if (++shown >= options.max_rules) break;
      }
    }
    if (shown == 0) {
      out += "(none below interest " +
             io::FormatDouble(options.negative_interest_cutoff, 2) + ")\n";
    } else {
      out += negatives.Render();
    }
  }

  out += "\n" + std::to_string(rules.size()) + " findings";
  if (options.fdr_level > 0.0) {
    out += " after FDR " + io::FormatDouble(options.fdr_level, 2) +
           " filtering (" + std::to_string(fdr_removed) + " removed)";
  }
  if (!result.frontier.empty()) {
    out += "; frontier of " + std::to_string(result.frontier.size()) +
           " supported uncorrelated sets";
  }
  out += ".\n";
  return out;
}

}  // namespace corrmine
