// cuckoograph_bench --figure <id> [flags]: reproduces one exhibit of the
// paper. Run without arguments for the list of figures and their flags.
#include "figures.h"

int main(int argc, char** argv) {
  return cuckoograph::bench::RunFigureCommand(argc, argv);
}
