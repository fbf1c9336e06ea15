package grammar.impl;

import java.util.ArrayList;
import java.util.List;

public class Initializers {
    static final List<String> NAMES = new ArrayList<>();
    private int hits;

    static {
        NAMES.add("first");
        if (NAMES.isEmpty()) { NAMES.add("second"); }
    }

    {
        hits = 1;
    }
    ;

    private enum Mode { ON, OFF; boolean on() { return this == ON; } }

    enum Level { LOW, HIGH }
    ;;

    int hits() { return hits; }
}
