# Runs each bench binary in BINS (a ';'-separated list) with hostile command
# lines and fails unless every run exits with status 2 — the CLI contract
# that misuse prints the known flags and exits 2 instead of aborting through
# an uncaught InvalidArgument. Invoked by ctest as
#   cmake -DBINS=<bin1;bin2;...> -P cli_misuse.cmake
foreach(bin IN LISTS BINS)
  foreach(args IN ITEMS "--bogus" "--help" "--rounds=abc" "stray")
    execute_process(COMMAND ${bin} ${args}
                    RESULT_VARIABLE status
                    OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT status EQUAL 2)
      message(FATAL_ERROR
              "${bin} ${args}: exit status '${status}', expected 2\n${err}")
    endif()
  endforeach()
endforeach()
