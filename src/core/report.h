#ifndef CORRMINE_CORE_REPORT_H_
#define CORRMINE_CORE_REPORT_H_

#include <string>

#include "common/status_or.h"
#include "core/chi_squared_miner.h"
#include "itemset/transaction_database.h"

namespace corrmine {

struct ReportOptions {
  /// Maximum rules listed in each section.
  size_t max_rules = 20;
  /// Interest below which the joint cell counts as a negative dependence.
  double negative_interest_cutoff = 0.8;
  /// When set, apply a Benjamini-Hochberg FDR filter at this level to the
  /// rules before reporting: 0 disables it (the paper's unadjusted regime),
  /// otherwise it must lie in (0,1).
  double fdr_level = 0.0;
};

/// InvalidArgument unless `fdr_level` is 0 or in (0,1).
Status ValidateReportOptions(const ReportOptions& options);

/// Renders a mining result as a human-readable analysis: per-level search
/// statistics, the strongest correlations (by chi-squared), the negative
/// dependencies (joint cell under expectation — what support-confidence
/// mining can never surface), and optional multiple-testing filtering.
/// `dict` may be null; items then print as "i<id>". Fails on options that
/// ValidateReportOptions rejects.
StatusOr<std::string> RenderReport(const MiningResult& result,
                                   const ItemDictionary* dict,
                                   const ReportOptions& options = {});

}  // namespace corrmine

#endif  // CORRMINE_CORE_REPORT_H_
