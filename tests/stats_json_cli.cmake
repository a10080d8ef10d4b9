# End-to-end check of the --stats-json determinism contract (DESIGN.md §6):
# mine the same Quest fixture at --threads 1, 2 and 8, and require the
# "deterministic" line of every stats file to be byte-identical. The
# "runtime" sections (timings, pool activity) are expected to differ and are
# not compared.
execute_process(
  COMMAND ${CLI} generate quest --baskets 2000 --out ${WORKDIR}/stats_fixture.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${rc}")
endif()

set(reference "")
foreach(threads 1 2 8)
  execute_process(
    COMMAND ${CLI} mine ${WORKDIR}/stats_fixture.txt
            --support-count 100 --cell-fraction 0.26 --max-level 3
            --threads ${threads}
            --stats-json ${WORKDIR}/stats_t${threads}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mine --threads ${threads} failed: ${rc}")
  endif()
  if(NOT EXISTS ${WORKDIR}/stats_t${threads}.json)
    message(FATAL_ERROR "--stats-json wrote no file at ${threads} threads")
  endif()
  file(STRINGS ${WORKDIR}/stats_t${threads}.json line
       REGEX "\"deterministic\"")
  list(LENGTH line n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR
            "expected exactly one deterministic line at ${threads} threads, "
            "got ${n}")
  endif()
  if(reference STREQUAL "")
    set(reference "${line}")
  elseif(NOT line STREQUAL reference)
    message(FATAL_ERROR
            "deterministic stats diverged across thread counts:\n"
            "  threads=1: ${reference}\n"
            "  threads=${threads}: ${line}")
  endif()
endforeach()

# Schema sanity on the full document. "cache" is a fixed null field of
# schema v1.
file(READ ${WORKDIR}/stats_t1.json doc)
foreach(key "\"schema\": \"corrmine-stats-v1\"" "\"runtime\":" "\"cache\":null")
  string(FIND "${doc}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "stats json missing ${key}:\n${doc}")
  endif()
endforeach()

# Tracing must be a pure observer: re-run with --trace-out and require the
# deterministic line to stay byte-identical to the untraced reference, with
# the trace file actually written. (The trace itself is schema-validated by
# the statsdiff_cli test; here the contract is "recording changed nothing".)
foreach(threads 1 8)
  set(tag traced_t${threads})
  execute_process(
    COMMAND ${CLI} mine ${WORKDIR}/stats_fixture.txt
            --support-count 100 --cell-fraction 0.26 --max-level 3
            --threads ${threads}
            --stats-json ${WORKDIR}/stats_${tag}.json
            --trace-out ${WORKDIR}/trace_${tag}.json
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traced mine --threads ${threads} failed: ${rc}")
  endif()
  if(NOT EXISTS ${WORKDIR}/trace_${tag}.json)
    message(FATAL_ERROR "--trace-out wrote no file for ${tag}")
  endif()
  file(STRINGS ${WORKDIR}/stats_${tag}.json line
       REGEX "\"deterministic\"")
  if(NOT line STREQUAL reference)
    message(FATAL_ERROR
            "tracing perturbed deterministic stats at threads=${threads}:\n"
            "  untraced: ${reference}\n"
            "  traced:   ${line}")
  endif()
endforeach()
