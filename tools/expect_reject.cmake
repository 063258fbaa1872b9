# Passes when `${CLI} ${ARGS}` exits 1 and names ${FLAG} on stderr:
#   cmake -DCLI=heat_cli "-DARGS=circuit --len 3abc" -DFLAG=--len
#         -P expect_reject.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "'${ARGS}': exit ${rc}, want 1\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGS}': stderr does not name ${FLAG}\n${err}")
endif()
