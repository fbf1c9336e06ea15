@Generated(value = "grammar", date = "2014")
package grammar.impl;

import grammar.api.Named;

@SuppressWarnings({"unchecked", "rawtypes"})
@Author(name = "grammar", year = 2014, reviewers = {@Reviewer("a"), @Reviewer("b")})
public final class Annotated implements Named {
    @Inject(optional = true) private int count;
    private @Nullable String label, alias;

    @Override
    public String name() { return label; }

    public @Deprecated synchronized void set(@Valid(groups = {Strict.class}) final int value, @Named("l") String l) {
        count = value;
        label = l;
    }
}
