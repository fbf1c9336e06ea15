package grammar.impl;

public int stray;
public static final;

class Recovery {
    private int total;

    int sum(int a) oops extra tokens { return total + a; }

    void reset() broken = 1;

    void after() { total = 0; }
}
