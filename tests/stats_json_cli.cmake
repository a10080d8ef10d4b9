# End-to-end check of the --stats-json determinism contract (DESIGN.md §6):
# mine the same Quest fixture at --threads 1, 2 and 8, and require the
# "deterministic" line of every stats file to be byte-identical. The
# "runtime" sections (timings, pool activity) are expected to differ and are
# not compared, except for the io.output.bytes counter checked at the end.
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

# Both ends of the process are phases: one file load (io.load) and one rule
# write (io.output) per `mine --out`. Under CORRMINE_METRICS=OFF no phase is
# recorded, so only the run itself is checked there.
execute_process(
  COMMAND ${CLI} mine ${WORKDIR}/stats_fixture.txt
          --support-count 100 --cell-fraction 0.26 --max-level 3
          --out ${WORKDIR}/stats_rules.txt
          --stats-json ${WORKDIR}/stats_out.json
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine --out failed: ${rc}")
endif()
if(METRICS)
  file(READ ${WORKDIR}/stats_out.json doc)
  foreach(phase io.load io.output)
    string(FIND "${doc}" "\"${phase}.ns\":{\"count\":1," pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "stats json lacks ${phase}.ns with count 1:\n${doc}")
    endif()
  endforeach()
endif()

# io.output.bytes counts what `mine` writes: the stdout rule table and level
# lines plus the --out file. It is a deterministic work counter, so it must
# not move with --threads, and on the cli_mine_golden configuration it must
# equal the size of that test's golden files.
if(METRICS)
  execute_process(
    COMMAND ${CLI} generate quest --baskets 2000
            --out ${WORKDIR}/stats_golden_quest.txt
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "generate failed: ${rc}")
  endif()
  file(SIZE ${GOLDEN_DIR}/cli_mine_quest.stdout.txt stdout_size)
  file(SIZE ${GOLDEN_DIR}/cli_mine_quest.out.txt out_size)
  math(EXPR golden_bytes "${stdout_size} + ${out_size}")
  foreach(threads 1 4)
    execute_process(
      COMMAND ${CLI} mine ${WORKDIR}/stats_golden_quest.txt
              --support-count 110 --cell-fraction 0.26 --max-level 3
              --threads ${threads}
              --out ${WORKDIR}/stats_golden_t${threads}.out
              --stats-json ${WORKDIR}/stats_golden_t${threads}.json
      RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "golden mine --threads ${threads} failed: ${rc}")
    endif()
    file(READ ${WORKDIR}/stats_golden_t${threads}.json doc)
    string(REGEX MATCH "\"io\\.output\\.bytes\":([0-9]+)" found "${doc}")
    if(NOT found)
      message(FATAL_ERROR "stats json lacks io.output.bytes:\n${doc}")
    endif()
    if(NOT CMAKE_MATCH_1 EQUAL golden_bytes)
      message(FATAL_ERROR
              "io.output.bytes at --threads ${threads} is ${CMAKE_MATCH_1}, "
              "expected ${golden_bytes} (golden stdout + --out)")
    endif()
  endforeach()
endif()

# io.load.bytes and io.load.baskets are the load's work counters: the whole
# input file and every basket in it, the same at any --threads. The CMB1
# fixture spans several decode morsels, so --threads 4 decodes in parallel.
if(METRICS)
  execute_process(
    COMMAND ${CLI} generate quest --baskets 6000 --format binary
            --out ${WORKDIR}/stats_load.bin
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "generate --format binary failed: ${rc}")
  endif()
  file(SIZE ${WORKDIR}/stats_load.bin load_file_bytes)
  foreach(threads 1 4)
    execute_process(
      COMMAND ${CLI} mine ${WORKDIR}/stats_load.bin
              --support-count 600 --cell-fraction 0.26 --max-level 2
              --threads ${threads}
              --stats-json ${WORKDIR}/stats_load_t${threads}.json
      RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "load mine --threads ${threads} failed: ${rc}")
    endif()
    file(READ ${WORKDIR}/stats_load_t${threads}.json doc)
    foreach(counter bytes baskets)
      string(REGEX MATCH "\"io\\.load\\.${counter}\":([0-9]+)" found "${doc}")
      if(NOT found)
        message(FATAL_ERROR "stats json lacks io.load.${counter}:\n${doc}")
      endif()
      set(load_${counter}_t${threads} ${CMAKE_MATCH_1})
    endforeach()
  endforeach()
  if(NOT load_bytes_t1 EQUAL load_file_bytes)
    message(FATAL_ERROR "io.load.bytes is ${load_bytes_t1}, expected the "
                        "input file's ${load_file_bytes} bytes")
  endif()
  if(NOT load_baskets_t1 EQUAL 6000)
    message(FATAL_ERROR "io.load.baskets is ${load_baskets_t1}, expected 6000")
  endif()
  foreach(counter bytes baskets)
    if(NOT load_${counter}_t1 EQUAL load_${counter}_t4)
      message(FATAL_ERROR
              "io.load.${counter} moved with --threads: "
              "${load_${counter}_t1} at 1, ${load_${counter}_t4} at 4")
    endif()
  endforeach()
endif()
