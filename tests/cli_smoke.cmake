# End-to-end CLI smoke test: generate a small dataset, mine it, and run the
# rule baseline; any non-zero exit fails the test.
execute_process(
  COMMAND ${CLI} generate quest --baskets 500 --out ${WORKDIR}/smoke.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${rc}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
          --cell-fraction 0.26 --max-level 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine failed: ${rc}")
endif()
if(NOT out MATCHES "level 2")
  message(FATAL_ERROR "mine output missing level stats: ${out}")
endif()
execute_process(
  COMMAND ${CLI} rules ${WORKDIR}/smoke.txt --min-support 0.02
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rules failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} bogus RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown command should fail")
endif()

# Exact-test of one itemset.
execute_process(
  COMMAND ${CLI} check ${WORKDIR}/smoke.txt --items 0,1 --rounds 50
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "exact")
  message(FATAL_ERROR "check failed: ${rc} ${out}")
endif()

# Result serialization via --out.
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
          --cell-fraction 0.26 --max-level 2 --out ${WORKDIR}/result.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/result.txt)
  message(FATAL_ERROR "mine --out failed")
endif()

# Categorical dependencies from CSV.
file(WRITE ${WORKDIR}/deps.csv
"color,size\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nred,small\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nblue,big\nred,big\nred,big\nred,big\nblue,small\nblue,small\nblue,small\n")
execute_process(
  COMMAND ${CLI} dependencies ${WORKDIR}/deps.csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "color")
  message(FATAL_ERROR "dependencies failed: ${rc} ${out}")
endif()

# Every subcommand rejects flags it does not know — including the removed
# --shards and --prefix-cache — instead of silently ignoring them.
foreach(flag "--shards;2" "--prefix-cache" "--support-cout;25")
  execute_process(
    COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25 ${flag}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "mine ${flag} should fail")
  endif()
  list(GET flag 0 name)
  if(NOT err MATCHES "unknown flag ${name}")
    message(FATAL_ERROR "mine ${flag}: error does not name the flag: ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CLI} rules ${WORKDIR}/smoke.txt --min-support 0.02 --shards 2
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "rules --shards should fail")
endif()

# --fdr is checked with the other mining flags: a level outside {0} ∪ (0,1)
# exits 1 naming --fdr before anything is mined or printed, in memory and
# out of core; a valid level filters the report.
foreach(fdr 2 1 -1 nan)
  foreach(mode "" "--out-of-core")
    execute_process(
      COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
              --cell-fraction 0.26 --max-level 2 --report --fdr ${fdr} ${mode}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR "mine --fdr ${fdr} ${mode} should exit 1: ${rc}")
    endif()
    if(NOT err MATCHES "InvalidArgument" OR NOT err MATCHES "--fdr")
      message(FATAL_ERROR "mine --fdr ${fdr} ${mode}: error does not name "
                          "--fdr: ${err}")
    endif()
    if(NOT out STREQUAL "")
      message(FATAL_ERROR "mine --fdr ${fdr} ${mode} printed output: ${out}")
    endif()
  endforeach()
endforeach()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
          --cell-fraction 0.26 --max-level 2 --report --fdr 0.05
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "after FDR 0.05 filtering")
  message(FATAL_ERROR "mine --report --fdr 0.05 failed: ${rc} ${out}")
endif()

# The flags the repair benchmark passes stay accepted: snapshot with
# --border-out, then resume with --append/--resume-from/--trace-out/--out.
execute_process(
  COMMAND ${CLI} generate quest --baskets 50 --seed 4711
          --out ${WORKDIR}/smoke_delta.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate delta failed: ${rc}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
          --cell-fraction 0.26 --threads 2 --max-level 2
          --border-out ${WORKDIR}/smoke.cbs
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine --border-out failed: ${rc}")
endif()
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --append ${WORKDIR}/smoke_delta.txt
          --resume-from ${WORKDIR}/smoke.cbs --support-count 25
          --cell-fraction 0.26 --threads 2 --out ${WORKDIR}/smoke_repair.txt
          --trace-out ${WORKDIR}/smoke_repair.trace.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/smoke_repair.txt)
  message(FATAL_ERROR "mine --append --resume-from failed: ${rc}")
endif()

# A rule table that cannot be written is an error, not a silent exit 0:
# mine's stdout goes to /dev/full (every write fails with ENOSPC).
if(EXISTS /dev/full)
  execute_process(
    COMMAND ${CLI} mine ${WORKDIR}/smoke.txt --support-count 25
            --cell-fraction 0.26 --max-level 2
    RESULT_VARIABLE rc OUTPUT_FILE /dev/full ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "mine > /dev/full should fail")
  endif()
  if(NOT err MATCHES "IOError")
    message(FATAL_ERROR "mine > /dev/full: error is not an IOError: ${err}")
  endif()
endif()
