# ctest helper for the bench drivers (cmake -P). Two modes:
#
#   -DDRIVER=<exe> -DARGS=<list> -DOUT=<path stem>
#       Run the driver twice, writing <OUT>.json and <OUT>_repeat.json; fail
#       unless both runs exit 0 and the two files are byte-identical.
#   -DDRIVER=<exe> -DARGS=<list> -DEXPECT_ERROR=<text> [-DEXPECT_RC=<code>]
#       Run the driver once; fail unless it exits <code> (default 2, a bad
#       command line) with <text> on stderr.
if(DEFINED EXPECT_ERROR)
  if(NOT DEFINED EXPECT_RC)
    set(EXPECT_RC 2)
  endif()
  execute_process(COMMAND ${DRIVER} ${ARGS} RESULT_VARIABLE rc ERROR_VARIABLE err)
  message("${err}")
  if(NOT rc EQUAL EXPECT_RC)
    message(FATAL_ERROR "expected exit ${EXPECT_RC}, got ${rc}")
  endif()
  string(FIND "${err}" "${EXPECT_ERROR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name the problem: expected \"${EXPECT_ERROR}\"")
  endif()
  return()
endif()

foreach(json ${OUT}.json ${OUT}_repeat.json)
  execute_process(COMMAND ${DRIVER} ${ARGS} --json-out=${json} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${DRIVER} exited with ${rc} writing ${json}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.json ${OUT}_repeat.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT}.json and ${OUT}_repeat.json differ: the run is not deterministic")
endif()
