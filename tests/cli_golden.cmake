# Byte-for-byte golden of `mine`'s two rule writers: the stdout rule table
# (plus the per-level lines) and the --out line format. Covers integer-id
# input (the session dictionary is empty, so patterns read "i<id>"), the
# out-of-core path (no dictionary at all) and --names input (patterns read
# the words). The trailing "result written to <path>" line names a
# per-build path, so it is checked and then dropped before comparing.
#
# Expects: CLI, WORKDIR, GOLDEN_DIR.

# Runs `mine` with `args`, requires success, and compares stdout and the
# --out file against ${GOLDEN_DIR}/${golden}.{stdout,out}.txt.
function(check_mine tag golden)
  set(out_file ${WORKDIR}/golden_${tag}.out.txt)
  file(REMOVE ${out_file})
  execute_process(
    COMMAND ${CLI} mine ${ARGN} --out ${out_file}
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tag}: mine failed (${rc}): ${stderr}")
  endif()
  set(written_line "result written to ${out_file}\n")
  string(LENGTH "${stdout}" stdout_len)
  string(LENGTH "${written_line}" line_len)
  math(EXPR table_len "${stdout_len} - ${line_len}")
  if(table_len LESS 0)
    message(FATAL_ERROR "${tag}: stdout too short:\n${stdout}")
  endif()
  string(SUBSTRING "${stdout}" ${table_len} -1 tail)
  if(NOT tail STREQUAL written_line)
    message(FATAL_ERROR "${tag}: stdout does not end with '${written_line}'")
  endif()
  string(SUBSTRING "${stdout}" 0 ${table_len} table)
  file(WRITE ${WORKDIR}/golden_${tag}.stdout.txt "${table}")
  foreach(kind stdout out)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORKDIR}/golden_${tag}.${kind}.txt
              ${GOLDEN_DIR}/${golden}.${kind}.txt
      RESULT_VARIABLE differs)
    if(differs)
      message(FATAL_ERROR
              "${tag}: ${kind} differs from ${GOLDEN_DIR}/${golden}.${kind}.txt"
              " (got ${WORKDIR}/golden_${tag}.${kind}.txt)")
    endif()
  endforeach()
endfunction()

execute_process(
  COMMAND ${CLI} generate quest --baskets 2000 --out ${WORKDIR}/golden_quest.txt
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${rc}")
endif()
set(quest_flags ${WORKDIR}/golden_quest.txt --support-count 110
    --cell-fraction 0.26 --max-level 3)
check_mine(quest_t1 cli_mine_quest ${quest_flags} --threads 1)
check_mine(quest_t4 cli_mine_quest ${quest_flags} --threads 4)
check_mine(quest_ooc cli_mine_quest ${quest_flags} --out-of-core)
check_mine(words cli_mine_words ${GOLDEN_DIR}/cli_words_baskets.txt --names
           --support-count 20 --cell-fraction 0.26 --max-level 3)
