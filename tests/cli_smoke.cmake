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
