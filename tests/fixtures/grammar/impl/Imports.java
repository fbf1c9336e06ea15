package grammar.impl;

import static java.lang.Math.max;
import static grammar.impl.Initializers.*;
import java.util.*;
import grammar.err.*;
import grammar.api.Service;

public class Imports {
    Service service;

    int larger(int a, int b) { return max(a, b); }
}
